package mpi

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Transport goldens: the serial engine's message-event stream and NIC link
// charges, and the partitioned engine's per-shard streams and charges, are
// digested and pinned for a rich mixed workload and a contended N->1
// incast. Any change to how a wire transfer queues on the backplane and the
// NIC links, sleeps, charges or completes shows up here, so a rewrite of
// the transport machinery that must not move virtual time is checked
// against the exact streams the previous machinery produced.
//
// Digest format, sha256 truncated to 8 bytes:
//   - ev: fmt.Sprintf("%+v\n", ev) for every MsgEvent in order (the
//     partitioned form prefixes each shard's stream with "shard <i>\n"),
//     then "end <ns>\n";
//   - links: "<link> <bytes> <start> <end>\n" for every LinkBusy charge on
//     every node's TX and RX, tag and process ignored (shard by shard in
//     the partitioned form).
var transportGolden = map[string]string{
	"serial cichlid n=8 rich":    "ev=7740fc9d9ecdf22b links=2c992e8a232ae368",
	"K=2 cichlid n=8 rich":       "ev=ca0af1cb856dc849 links=1abf6e4971456b3f",
	"K=4 cichlid n=8 rich":       "ev=842fa3bb1c68b4a1 links=10a1d86ea8ff91ea",
	"K=8 cichlid n=8 rich":       "ev=a20abbd879a83da4 links=870eee693308d1d7",
	"serial cichlid n=8 incast":  "ev=00029c7770db7aef links=71a035226fd41c2f",
	"K=2 cichlid n=8 incast":     "ev=5e6228225416e1a0 links=43decf6d799fdb8b",
	"K=4 cichlid n=8 incast":     "ev=054b27075ae87ce1 links=2e0f927317924297",
	"K=8 cichlid n=8 incast":     "ev=6b5f63a75b1021be links=0d99fb0f5e4b579c",
	"serial cichlid n=16 rich":   "ev=d7355d8236d328f8 links=469710f255018bd6",
	"K=2 cichlid n=16 rich":      "ev=4a82ea182b21047a links=80d1b4311d4fb0a6",
	"K=4 cichlid n=16 rich":      "ev=bf8b94d329267537 links=86228aba9306db6b",
	"K=8 cichlid n=16 rich":      "ev=e732f991fbffb72b links=08c36e80530e91d2",
	"serial cichlid n=16 incast": "ev=75e36ac07afce654 links=5a842483b06b556d",
	"K=2 cichlid n=16 incast":    "ev=cb1274acf27e34e5 links=50f05461fee382ab",
	"K=4 cichlid n=16 incast":    "ev=8bd6998f007328cd links=d68b688179923cce",
	"K=8 cichlid n=16 incast":    "ev=d2a6607ecb43c9eb links=1db226ff9f03e545",
	"serial ricc n=8 rich":       "ev=65852c9aea49bc30 links=6c581f26f2b91696",
	"K=2 ricc n=8 rich":          "ev=2e73e566e1edf753 links=3b598f1a787e2da9",
	"K=4 ricc n=8 rich":          "ev=7a689201ce0b10dc links=55e02b4dedb31347",
	"K=8 ricc n=8 rich":          "ev=5cb57af6760545fa links=3e496f00f31bf656",
	"serial ricc n=8 incast":     "ev=6c55265622ab9125 links=7a691ebb5e49227b",
	"K=2 ricc n=8 incast":        "ev=fd5e5634a67b4e31 links=68758989f91e1472",
	"K=4 ricc n=8 incast":        "ev=2888b9e417dea18a links=cd2d59ad3ef8556f",
	"K=8 ricc n=8 incast":        "ev=ce92594675a8b34d links=b19efdce4e4986fb",
	"serial ricc n=16 rich":      "ev=b96e8634c60b0dd0 links=9a0fb9657dc3f63b",
	"K=2 ricc n=16 rich":         "ev=8972da8adbf16ca6 links=049b185c791cdce9",
	"K=4 ricc n=16 rich":         "ev=766bbac132d53c68 links=c10b9d2090cf1035",
	"K=8 ricc n=16 rich":         "ev=d8f187b3fa817c65 links=2e6c684d4b60c9bd",
	"serial ricc n=16 incast":    "ev=5b4fed28f55ec26e links=b0751d78c0549968",
	"K=2 ricc n=16 incast":       "ev=2e3ba72838925467 links=4359e2db9b3eef4f",
	"K=4 ricc n=16 incast":       "ev=41753e318861531d links=988a1e741219a5a1",
	"K=8 ricc n=16 incast":       "ev=5d0e28875060999a links=f8e35abb8af05f61",
}

// linkLines records every charge on the links it observes as one digest
// line, ignoring the charge's tag and process.
type linkLines struct{ lines []string }

func (l *linkLines) LinkBusy(link, _, _ string, bytes int64, start, end sim.Time) {
	l.lines = append(l.lines, fmt.Sprintf("%s %d %d %d\n", link, bytes, start, end))
}

// observeNICs installs l on the TX and RX link of every node w hosts.
func observeNICs(w *World, l *linkLines) {
	for _, nd := range w.Cluster().Nodes {
		if nd != nil {
			nd.TX.SetObserver(l)
			nd.RX.SetObserver(l)
		}
	}
}

func digest8(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }

// incastBody is a contended N->1 fan-in: ranks 1..n-1 each send two eager
// messages and one rendezvous message of EagerThreshold+1000*r bytes to
// rank 0, which posts every receive up front with exact sources. Then every
// rank runs an eager ring and a barrier. Payloads are checked.
func incastBody(p *sim.Proc, ep *Endpoint) {
	comm := ep.World().Comm()
	n, r := ep.Size(), ep.Rank()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	mustReq := func(req *Request, err error) *Request {
		must(err)
		return req
	}
	fill := func(size, v int) []byte {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(v + i)
		}
		return b
	}
	const eagerSize = 1024
	if r == 0 {
		var reqs []*Request
		var bufs [][]byte
		for src := 1; src < n; src++ {
			for k, size := range []int{eagerSize, eagerSize, EagerThreshold + 1000*src} {
				buf := make([]byte, size)
				bufs = append(bufs, buf)
				reqs = append(reqs, mustReq(ep.Irecv(p, buf, src, 10+k, Bytes, comm)))
			}
		}
		must(Waitall(p, reqs...))
		for i, buf := range bufs {
			src := 1 + i/3
			if buf[len(buf)-1] != fill(len(buf), src)[len(buf)-1] {
				panic(fmt.Sprintf("incast payload %d from rank %d corrupted", i, src))
			}
		}
	} else {
		var reqs []*Request
		for k, size := range []int{eagerSize, eagerSize, EagerThreshold + 1000*r} {
			reqs = append(reqs, mustReq(ep.Isend(p, fill(size, r), 0, 10+k, Bytes, comm)))
		}
		must(Waitall(p, reqs...))
	}
	in := make([]byte, 256)
	sreq := mustReq(ep.Isend(p, fill(256, r), (r+1)%n, 20, Bytes, comm))
	rreq := mustReq(ep.Irecv(p, in, (r-1+n)%n, 20, Bytes, comm))
	must(Waitall(p, sreq, rreq))
	if in[0] != byte((r-1+n)%n) {
		panic(fmt.Sprintf("rank %d: ring payload corrupted", r))
	}
	must(ep.Barrier(p, comm))
}

// serialTransportDigest runs body on the serial engine and digests its
// event stream, end time and NIC charges.
func serialTransportDigest(t *testing.T, sysName string, n int, body func(*sim.Proc, *Endpoint)) string {
	t.Helper()
	eng := sim.NewEngine()
	w := NewWorld(cluster.New(eng, testSystems(n)[sysName], n))
	rec := &evRec{}
	w.SetMsgObserver(rec)
	ll := &linkLines{}
	observeNICs(w, ll)
	w.LaunchRanks("rank", body)
	if err := eng.Run(); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	ev, links := sha256.New(), sha256.New()
	for _, e := range rec.evs {
		fmt.Fprintf(ev, "%+v\n", e)
	}
	fmt.Fprintf(ev, "end %d\n", eng.Now())
	for _, l := range ll.lines {
		fmt.Fprint(links, l)
	}
	return "ev=" + digest8(ev) + " links=" + digest8(links)
}

// partTransportDigest runs body on a parts-way partitioned world (one
// worker per shard) and digests every shard's stream and NIC charges.
func partTransportDigest(t *testing.T, sysName string, n, parts int, body func(*sim.Proc, *Endpoint)) string {
	t.Helper()
	sys := testSystems(n)[sysName]
	pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, n, parts))
	pw := NewPartWorld(pe, sys, n)
	recs := make([]*evRec, parts)
	pw.SetMsgObserver(func(shard int) MsgObserver {
		recs[shard] = &evRec{}
		return recs[shard]
	})
	lls := make([]*linkLines, parts)
	for i := range lls {
		lls[i] = &linkLines{}
		observeNICs(pw.Shard(i), lls[i])
	}
	pw.LaunchRanks("rank", body)
	if err := pw.Run(parts); err != nil {
		t.Fatalf("partitioned run (parts=%d): %v", parts, err)
	}
	ev, links := sha256.New(), sha256.New()
	for i, r := range recs {
		fmt.Fprintf(ev, "shard %d\n", i)
		for _, e := range r.evs {
			fmt.Fprintf(ev, "%+v\n", e)
		}
		fmt.Fprintf(links, "shard %d\n", i)
		for _, l := range lls[i].lines {
			fmt.Fprint(links, l)
		}
	}
	fmt.Fprintf(ev, "end %d\n", pe.Now())
	return "ev=" + digest8(ev) + " links=" + digest8(links)
}

// TestTransportGolden checks every pinned digest. On a deliberate change
// to virtual time, the logged lines are the new table.
func TestTransportGolden(t *testing.T) {
	bodies := []struct {
		name string
		fn   func(*sim.Proc, *Endpoint)
	}{{"rich", richBody}, {"incast", incastBody}}
	var keys []string
	got := map[string]string{}
	for _, sysName := range []string{"cichlid", "ricc"} {
		for _, n := range []int{8, 16} {
			for _, b := range bodies {
				k := fmt.Sprintf("serial %s n=%d %s", sysName, n, b.name)
				keys = append(keys, k)
				got[k] = serialTransportDigest(t, sysName, n, b.fn)
				for _, parts := range []int{2, 4, 8} {
					k := fmt.Sprintf("K=%d %s n=%d %s", parts, sysName, n, b.name)
					keys = append(keys, k)
					got[k] = partTransportDigest(t, sysName, n, parts, b.fn)
				}
			}
		}
	}
	for _, k := range keys {
		t.Logf("%q: %q,", k, got[k])
		if want := transportGolden[k]; got[k] != want {
			t.Errorf("%s: got %s, want %s", k, got[k], want)
		}
	}
}

// transportGoldenSHA pins the sha256 of the transportGolden table under
// each cluster.ModelVersion. Regenerating the goldens moves the table's
// digest, so it fails here until the model version is bumped and the new
// digest recorded under it.
var transportGoldenSHA = map[int]string{
	1: "060aaa5b2235423978f2c25bca04e4c1a4ed195e2bd3c7410fc04e6556e1aac1",
	2: "f1842fab335473981f2df4856d0301894729533504408907250064fd3af639cd",
}

// TestTransportGoldenVersioned checks the table against the digest pinned
// for the current model version.
func TestTransportGoldenVersioned(t *testing.T) {
	keys := make([]string, 0, len(transportGolden))
	for k := range transportGolden {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s: %s\n", k, transportGolden[k])
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("model version %d: transportGolden sha256 %s", cluster.ModelVersion, got)
	if want := transportGoldenSHA[cluster.ModelVersion]; got != want {
		t.Fatalf("transportGolden sha256 = %s, pinned for model version %d: %q; regenerated goldens need a cluster.ModelVersion bump", got, cluster.ModelVersion, want)
	}
}

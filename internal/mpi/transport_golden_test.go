package mpi

import (
	"crypto/sha256"
	"fmt"
	"hash"
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
//     every node's TX and RX, seen through a plain LinkObserver (shard by
//     shard in the partitioned form).
var transportGolden = map[string]string{
	"serial cichlid n=8 rich":    "ev=7740fc9d9ecdf22b links=2c992e8a232ae368",
	"K=2 cichlid n=8 rich":       "ev=69b9f2a70e60e7eb links=62eb0321d3214d91",
	"K=4 cichlid n=8 rich":       "ev=a5354e62af18a8c3 links=04fcf812347ef094",
	"K=8 cichlid n=8 rich":       "ev=a20abbd879a83da4 links=870eee693308d1d7",
	"serial cichlid n=8 incast":  "ev=00029c7770db7aef links=71a035226fd41c2f",
	"K=2 cichlid n=8 incast":     "ev=907318a37d1e10cc links=5e879b16301cb607",
	"K=4 cichlid n=8 incast":     "ev=d5fbba2488374794 links=92dde31a3536ae6e",
	"K=8 cichlid n=8 incast":     "ev=6b5f63a75b1021be links=0d99fb0f5e4b579c",
	"serial cichlid n=16 rich":   "ev=d7355d8236d328f8 links=469710f255018bd6",
	"K=2 cichlid n=16 rich":      "ev=0cbca078d18cd2a5 links=b62c81cceebd16c8",
	"K=4 cichlid n=16 rich":      "ev=06ce027bb1a9f69c links=fcb37027b4f11c3d",
	"K=8 cichlid n=16 rich":      "ev=227ac1925d012045 links=73249df2b6d0ed56",
	"serial cichlid n=16 incast": "ev=75e36ac07afce654 links=5a842483b06b556d",
	"K=2 cichlid n=16 incast":    "ev=e39952d5e8885622 links=444b1f41b911990d",
	"K=4 cichlid n=16 incast":    "ev=b178b4e132ce0538 links=2ccb82a3ab437ae5",
	"K=8 cichlid n=16 incast":    "ev=6e9816235d329119 links=c2ef21a37de84bc9",
	"serial ricc n=8 rich":       "ev=65852c9aea49bc30 links=6c581f26f2b91696",
	"K=2 ricc n=8 rich":          "ev=40b545908fe0bd90 links=786ec8bb3ea106c7",
	"K=4 ricc n=8 rich":          "ev=3d6c2170aa5e1cad links=f11d200bf3bd743f",
	"K=8 ricc n=8 rich":          "ev=5cb57af6760545fa links=3e496f00f31bf656",
	"serial ricc n=8 incast":     "ev=6c55265622ab9125 links=7a691ebb5e49227b",
	"K=2 ricc n=8 incast":        "ev=f2666189045caab9 links=bf3bfe1e469897da",
	"K=4 ricc n=8 incast":        "ev=c8b648ea92762455 links=c387c4dc3bbe44df",
	"K=8 ricc n=8 incast":        "ev=ce92594675a8b34d links=b19efdce4e4986fb",
	"serial ricc n=16 rich":      "ev=b96e8634c60b0dd0 links=9a0fb9657dc3f63b",
	"K=2 ricc n=16 rich":         "ev=7242b1f71893cdbb links=dc65579f4620f2db",
	"K=4 ricc n=16 rich":         "ev=eff5735ecff2f383 links=9169832dac3260e3",
	"K=8 ricc n=16 rich":         "ev=daa5949a89385a66 links=55be57e21c662f67",
	"serial ricc n=16 incast":    "ev=5b4fed28f55ec26e links=b0751d78c0549968",
	"K=2 ricc n=16 incast":       "ev=3d9bb01eab07c932 links=139e77421e95e0a9",
	"K=4 ricc n=16 incast":       "ev=25b089b80cb08f43 links=cc55405e3e18131d",
	"K=8 ricc n=16 incast":       "ev=a929e0f4334040a3 links=cbee6eaa8df5b92c",
}

// linkLines records every charge on the links it observes as one digest
// line. It is a plain LinkObserver, so tagged charges arrive as LinkBusy.
type linkLines struct{ lines []string }

func (l *linkLines) LinkBusy(link string, bytes int64, start, end sim.Time) {
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

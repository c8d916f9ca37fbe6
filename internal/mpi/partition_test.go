package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// evRec collects one shard's message-event stream.
type evRec struct{ evs []MsgEvent }

func (r *evRec) MessageEvent(ev MsgEvent) { r.evs = append(r.evs, ev) }

// richBody is a workload exercising every transport path: eager and
// rendezvous point-to-point (intra- and cross-partition once the world is
// split), wildcards, probes, synchronous sends, truncation on both
// protocols, and the collectives. Unexpected errors panic (failing the run);
// expected errors are asserted in place.
func richBody(p *sim.Proc, ep *Endpoint) {
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

	// Round 1: eager ring with concrete coordinates.
	small := make([]byte, 256)
	for i := range small {
		small[i] = byte(r)
	}
	in1 := make([]byte, 256)
	sreq := mustReq(ep.Isend(p, small, (r+1)%n, 1, Bytes, comm))
	rreq := mustReq(ep.Irecv(p, in1, (r-1+n)%n, 1, Bytes, comm))
	must(Waitall(p, sreq, rreq))
	if in1[0] != byte((r-1+n)%n) {
		panic(fmt.Sprintf("rank %d: ring payload corrupted: got %d", r, in1[0]))
	}

	// Round 2: wildcard receives (AnySource on even ranks, AnyTag on odd).
	in2 := make([]byte, 256)
	src, tag := (r-2+2*n)%n, 2
	if r%2 == 0 {
		src = AnySource
	} else {
		tag = AnyTag
	}
	rreq = mustReq(ep.Irecv(p, in2, src, tag, Bytes, comm))
	sreq = mustReq(ep.Isend(p, small, (r+2)%n, 2, Bytes, comm))
	must(Waitall(p, sreq, rreq))

	// Round 3: rendezvous ring (above the eager threshold).
	big := make([]byte, EagerThreshold+4096)
	for i := range big {
		big[i] = byte(r + 1)
	}
	inBig := make([]byte, len(big))
	sreq = mustReq(ep.Isend(p, big, (r+1)%n, 3, Bytes, comm))
	rreq = mustReq(ep.Irecv(p, inBig, (r-1+n)%n, 3, Bytes, comm))
	must(Waitall(p, sreq, rreq))
	if inBig[len(inBig)-1] != byte((r-1+n)%n+1) {
		panic(fmt.Sprintf("rank %d: rndv payload corrupted", r))
	}

	// Round 4: truncation, eager (rank 0 -> last) and rendezvous (rank 1 ->
	// last). The sender completes cleanly; the receiver sees ErrTruncate.
	last := n - 1
	switch r {
	case 0:
		must(ep.Send(p, small[:100], last, 4, Bytes, comm))
	case 1:
		must(ep.Send(p, big, last, 5, Bytes, comm))
	case last:
		tiny := make([]byte, 50)
		if _, err := ep.Recv(p, tiny, 0, 4, Bytes, comm); !errors.Is(err, ErrTruncate) {
			panic(fmt.Sprintf("eager truncation: got %v", err))
		}
		if _, err := ep.Recv(p, tiny, 1, 5, Bytes, comm); !errors.Is(err, ErrTruncate) {
			panic(fmt.Sprintf("rndv truncation: got %v", err))
		}
	}

	// Round 5: synchronous send plus a probed receive.
	if r == 2%n {
		must(ep.Ssend(p, small[:64], last, 6, comm))
	}
	if r == last {
		st, err := ep.Probe(p, AnySource, 6, comm)
		must(err)
		buf := make([]byte, st.Count)
		if _, err := ep.Recv(p, buf, st.Source, 6, Bytes, comm); err != nil {
			panic(err)
		}
	}

	// Round 6: collectives.
	must(ep.Barrier(p, comm))
	bc := make([]byte, 1024)
	if r == 0 {
		for i := range bc {
			bc[i] = 7
		}
	}
	must(ep.Bcast(p, bc, 0, comm))
	if bc[100] != 7 {
		panic(fmt.Sprintf("rank %d: bcast payload corrupted", r))
	}
	sum, err := ep.AllreduceSum(p, float64(r), comm)
	must(err)
	if want := float64(n*(n-1)) / 2; sum != want {
		panic(fmt.Sprintf("rank %d: allreduce got %v want %v", r, sum, want))
	}
	out := make([]byte, 64*n)
	must(ep.Gather(p, small[:64], out, last, comm))
	must(ep.Barrier(p, comm))
}

// runSerial executes body on the legacy serial engine and returns the event
// stream and end time.
func runSerial(t *testing.T, sys cluster.System, n int, body func(*sim.Proc, *Endpoint)) ([]MsgEvent, sim.Time) {
	t.Helper()
	eng := sim.NewEngine()
	w := NewWorld(cluster.New(eng, sys, n))
	rec := &evRec{}
	w.SetMsgObserver(rec)
	w.LaunchRanks("rank", body)
	if err := eng.Run(); err != nil {
		t.Fatalf("serial run: %v", err)
	}
	return rec.evs, eng.Now()
}

// runPart executes body on a partitioned world and returns per-shard event
// streams and the end time.
func runPart(t *testing.T, sys cluster.System, n, parts, workers int, body func(*sim.Proc, *Endpoint)) ([][]MsgEvent, sim.Time) {
	t.Helper()
	pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, n, parts))
	pw := NewPartWorld(pe, sys, n)
	recs := make([]*evRec, parts)
	pw.SetMsgObserver(func(shard int) MsgObserver {
		recs[shard] = &evRec{}
		return recs[shard]
	})
	pw.LaunchRanks("rank", body)
	if err := pw.Run(workers); err != nil {
		t.Fatalf("partitioned run (parts=%d workers=%d): %v", parts, workers, err)
	}
	streams := make([][]MsgEvent, parts)
	for i, r := range recs {
		streams[i] = r.evs
	}
	return streams, pe.Now()
}

func testSystems(n int) map[string]cluster.System {
	cichlid := cluster.Cichlid()
	cichlid.MaxNodes = n
	ricc := cluster.RICC()
	if ricc.MaxNodes < n {
		ricc.MaxNodes = n
	}
	return map[string]cluster.System{"cichlid": cichlid, "ricc": ricc}
}

// TestPartitionK1BitIdentical: a 1-partition world must produce the exact
// serial event stream and end time — the partitioned machinery engages only
// when messages actually cross shards.
func TestPartitionK1BitIdentical(t *testing.T) {
	const n = 8
	for name, sys := range testSystems(n) {
		t.Run(name, func(t *testing.T) {
			sev, send := runSerial(t, sys, n, richBody)
			pev, pend := runPart(t, sys, n, 1, 1, richBody)
			if send != pend {
				t.Fatalf("end time: serial %v, 1-partition %v", send, pend)
			}
			if !reflect.DeepEqual(sev, pev[0]) {
				t.Fatalf("event streams diverge: serial %d events, partitioned %d", len(sev), len(pev[0]))
			}
		})
	}
}

// TestPartitionWorkersEquivalent: the oracle gate — a 4-partition world run
// on 4 host cores must be byte-identical (per-shard event streams and end
// time) to the same partitioned world run serially, on both preset systems.
func TestPartitionWorkersEquivalent(t *testing.T) {
	const n, parts = 8, 4
	for name, sys := range testSystems(n) {
		t.Run(name, func(t *testing.T) {
			sev, send := runPart(t, sys, n, parts, 1, richBody)
			pev, pend := runPart(t, sys, n, parts, parts, richBody)
			if send != pend {
				t.Fatalf("end time: workers=1 %v, workers=%d %v", send, parts, pend)
			}
			for i := range sev {
				if !reflect.DeepEqual(sev[i], pev[i]) {
					t.Fatalf("shard %d event streams diverge: %d vs %d events", i, len(sev[i]), len(pev[i]))
				}
			}
		})
	}
}

// TestPartitionMatchWorkloadEquivalent mirrors the benchmark workload shape
// (dense exchange with wildcards) at a size where every shard boundary is
// crossed every round.
func TestPartitionMatchWorkloadEquivalent(t *testing.T) {
	const n, parts, outstanding, rounds = 16, 4, 6, 3
	dense := func(p *sim.Proc, ep *Endpoint) {
		comm := ep.World().Comm()
		nn, r := ep.Size(), ep.Rank()
		bufs := make([][]byte, outstanding)
		for j := range bufs {
			bufs[j] = make([]byte, 256)
		}
		payload := make([]byte, 256)
		for round := 0; round < rounds; round++ {
			var reqs []*Request
			for j := 0; j < outstanding; j++ {
				src, tag := ((r-1-j)%nn+nn)%nn, j
				if j*100 < outstanding*50 {
					if j%2 == 0 {
						src = AnySource
					} else {
						tag = AnyTag
					}
				}
				req, err := ep.Irecv(p, bufs[j], src, tag, Bytes, comm)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, req)
			}
			for j := 0; j < outstanding; j++ {
				req, err := ep.Isend(p, payload, (r+1+j)%nn, j, Bytes, comm)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, req)
			}
			if err := Waitall(p, reqs...); err != nil {
				panic(err)
			}
			if err := ep.Barrier(p, comm); err != nil {
				panic(err)
			}
		}
	}
	sys := cluster.RICC()
	sev, send := runPart(t, sys, n, parts, 1, dense)
	pev, pend := runPart(t, sys, n, parts, parts, dense)
	if send != pend {
		t.Fatalf("end time: workers=1 %v, workers=%d %v", send, parts, pend)
	}
	for i := range sev {
		if !reflect.DeepEqual(sev[i], pev[i]) {
			t.Fatalf("shard %d event streams diverge", i)
		}
	}
}

// TestPartitionPropertyRandomShards: randomized shard counts, 1 through 8,
// drawn from a fixed-seed generator so failures replay. For every sampled
// (system, ranks, parts): a single-partition world must match the serial
// engine bit-for-bit, and a parts-worker run must match a 1-worker run of
// the same split — identical per-shard streams (hence identical merged
// streams) and identical end times.
func TestPartitionPropertyRandomShards(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for name, mk := range map[string]func() cluster.System{
		"cichlid": cluster.Cichlid, "ricc": cluster.RICC,
	} {
		for trial := 0; trial < 4; trial++ {
			parts := 1 + rng.Intn(8)
			n := parts + 2 + rng.Intn(10)
			t.Run(fmt.Sprintf("%s/n%d/k%d", name, n, parts), func(t *testing.T) {
				sys := mk()
				if sys.MaxNodes < n {
					sys.MaxNodes = n
				}
				sev, send := runSerial(t, sys, n, richBody)
				p1, end1 := runPart(t, sys, n, parts, 1, richBody)
				pk, endk := runPart(t, sys, n, parts, parts, richBody)
				if end1 != endk {
					t.Fatalf("end time: workers=1 %v, workers=%d %v", end1, parts, endk)
				}
				for i := range p1 {
					if !reflect.DeepEqual(p1[i], pk[i]) {
						t.Fatalf("shard %d streams diverge between workers=1 and workers=%d", i, parts)
					}
				}
				if parts == 1 {
					if send != end1 {
						t.Fatalf("end time: serial %v, 1-partition %v", send, end1)
					}
					if !reflect.DeepEqual(sev, p1[0]) {
						t.Fatalf("1-partition stream diverges from serial")
					}
				} else {
					// Across the serial/partitioned transport boundary only
					// the event count is directly comparable (cross events
					// carry shard-local delivery detail); end times match
					// whenever no cross rendezvous reshapes the schedule, so
					// assert the cheap invariant that both runs completed.
					total := 0
					for _, s := range p1 {
						total += len(s)
					}
					if total == 0 && len(sev) != 0 {
						t.Fatalf("partitioned run observed no events, serial observed %d", len(sev))
					}
				}
			})
		}
	}
}

// TestPartitionCrossDeadlock: an unmatched cross-partition Ssend must
// surface as a merged deadlock report naming the blocked rank.
func TestPartitionCrossDeadlock(t *testing.T) {
	sys := cluster.Cichlid()
	pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, 4, 2))
	pw := NewPartWorld(pe, sys, 4)
	pw.LaunchRanks("rank", func(p *sim.Proc, ep *Endpoint) {
		if ep.Rank() == 0 {
			// Synchronous send nobody will ever receive.
			_ = ep.Ssend(p, make([]byte, 64), 3, 9, ep.World().Comm())
		}
	})
	err := pw.Run(2)
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	found := false
	for _, b := range dl.Blocked {
		if strings.Contains(b, "rank.rank0") && strings.Contains(b, "ssend 0->3 tag 9") {
			found = true
		}
	}
	if !found {
		t.Fatalf("deadlock report misses the blocked ssend: %v", dl.Blocked)
	}
}

// TestPartitionCrossPayloads pins the data-integrity corners of the cross
// transport directly: eager and rendezvous payload content, rendezvous
// sender completion on truncation, and cross Ssend completion.
func TestPartitionCrossPayloads(t *testing.T) {
	sys := cluster.RICC()
	pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, 4, 2))
	pw := NewPartWorld(pe, sys, 4)
	pw.LaunchRanks("rank", func(p *sim.Proc, ep *Endpoint) {
		comm := ep.World().Comm()
		switch ep.Rank() {
		case 0:
			small := []byte{1, 2, 3, 4}
			if err := ep.Send(p, small, 3, 1, Bytes, comm); err != nil {
				panic(err)
			}
			big := make([]byte, EagerThreshold+100)
			big[EagerThreshold+99] = 42
			if err := ep.Send(p, big, 3, 2, Bytes, comm); err != nil {
				panic(err)
			}
			// Rendezvous into a too-small buffer: the sender still
			// completes (no data phase runs).
			if err := ep.Send(p, big, 3, 3, Bytes, comm); err != nil {
				panic(err)
			}
			if err := ep.Ssend(p, small, 3, 4, comm); err != nil {
				panic(err)
			}
		case 3:
			got := make([]byte, 4)
			if _, err := ep.Recv(p, got, 0, 1, Bytes, comm); err != nil {
				panic(err)
			}
			if got[3] != 4 {
				panic("cross eager payload corrupted")
			}
			big := make([]byte, EagerThreshold+100)
			if _, err := ep.Recv(p, big, 0, 2, Bytes, comm); err != nil {
				panic(err)
			}
			if big[EagerThreshold+99] != 42 {
				panic("cross rndv payload corrupted")
			}
			tiny := make([]byte, 8)
			if _, err := ep.Recv(p, tiny, 0, 3, Bytes, comm); !errors.Is(err, ErrTruncate) {
				panic(fmt.Sprintf("cross rndv truncation: got %v", err))
			}
			if _, err := ep.Recv(p, got, 0, 4, Bytes, comm); err != nil {
				panic(err)
			}
		}
	})
	if err := pw.Run(2); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// shardIncastBody is a per-shard N->1 incast for a world split parts ways:
// every other rank of a shard's rank range sends two eager messages and
// one rendezvous message of EagerThreshold+1000*r bytes to the range's
// first rank, which posts every receive up front with exact sources. No
// message leaves its shard, and there is no world collective. Payloads are
// checked.
func shardIncastBody(parts int) func(*sim.Proc, *Endpoint) {
	return func(p *sim.Proc, ep *Endpoint) {
		comm := ep.World().Comm()
		n, r := ep.Size(), ep.Rank()
		lo, hi := 0, 0
		for i := 0; i < parts && !(r >= lo && r < hi); i++ {
			lo, hi = cluster.PartRange(n, parts, i)
		}
		sizes := func(src int) []int { return []int{1024, 1024, EagerThreshold + 1000*src} }
		var reqs []*Request
		if r == lo {
			var bufs [][]byte
			for src := lo + 1; src < hi; src++ {
				for k, size := range sizes(src) {
					buf := make([]byte, size)
					bufs = append(bufs, buf)
					req, err := ep.Irecv(p, buf, src, 10+k, Bytes, comm)
					if err != nil {
						panic(err)
					}
					reqs = append(reqs, req)
				}
			}
			if err := Waitall(p, reqs...); err != nil {
				panic(err)
			}
			for i, buf := range bufs {
				if src := lo + 1 + i/3; buf[len(buf)-1] != byte(src+len(buf)-1) {
					panic(fmt.Sprintf("incast payload %d from rank %d corrupted", i, src))
				}
			}
			return
		}
		for k, size := range sizes(r) {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(r + i)
			}
			req, err := ep.Isend(p, buf, lo, 10+k, Bytes, comm)
			if err != nil {
				panic(err)
			}
			reqs = append(reqs, req)
		}
		if err := Waitall(p, reqs...); err != nil {
			panic(err)
		}
	}
}

// chargesByLink groups NIC charge lines by link name, keeping each link's
// charges in order.
func chargesByLink(lls ...*linkLines) map[string][]string {
	m := map[string][]string{}
	for _, ll := range lls {
		for _, l := range ll.lines {
			name := l[:strings.IndexByte(l, ' ')]
			m[name] = append(m[name], l)
		}
	}
	return m
}

// TestPartitionShardLocalMatchesSerial: traffic that never leaves its shard
// takes the serial transport's wire transfers, so every NIC link sees the
// serial engine's charges, in order, and the run ends at the same instant.
// Each shard has its own link observer: shards run on parallel workers.
func TestPartitionShardLocalMatchesSerial(t *testing.T) {
	const n = 16
	for name, sys := range testSystems(n) {
		for _, parts := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/K=%d", name, parts), func(t *testing.T) {
				body := shardIncastBody(parts)
				eng := sim.NewEngine()
				w := NewWorld(cluster.New(eng, sys, n))
				serial := &linkLines{}
				observeNICs(w, serial)
				w.LaunchRanks("rank", body)
				if err := eng.Run(); err != nil {
					t.Fatalf("serial run: %v", err)
				}

				pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, n, parts))
				pw := NewPartWorld(pe, sys, n)
				lls := make([]*linkLines, parts)
				for i := range lls {
					lls[i] = &linkLines{}
					observeNICs(pw.Shard(i), lls[i])
				}
				pw.LaunchRanks("rank", body)
				if err := pw.Run(parts); err != nil {
					t.Fatalf("partitioned run: %v", err)
				}

				if eng.Now() != pe.Now() {
					t.Errorf("end time: serial %v, partitioned %v", eng.Now(), pe.Now())
				}
				want, got := chargesByLink(serial), chargesByLink(lls...)
				if len(want) == 0 {
					t.Fatal("serial run charged no NIC link")
				}
				for link, w := range want {
					if g := got[link]; !reflect.DeepEqual(g, w) {
						t.Errorf("%s: partitioned charges %q, serial %q", link, g, w)
					}
				}
				for link := range got {
					if _, ok := want[link]; !ok {
						t.Errorf("%s: charged only in the partitioned run", link)
					}
				}
			})
		}
	}
}

// TestPartitionNoMachineryGoroutines: the partitioned transport's machinery
// is state, not goroutines. During a 4-way 64-rank exchange whose every
// message crosses shards, the goroutines above the baseline peak at no
// more than one coroutine per rank plus the worker pool.
func TestPartitionNoMachineryGoroutines(t *testing.T) {
	const n, parts = 64, 4
	sys := testSystems(n)["ricc"]
	pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, n, parts))
	pw := NewPartWorld(pe, sys, n)
	var peak atomic.Int64
	sample := func() {
		g := int64(runtime.NumGoroutine())
		for cur := peak.Load(); g > cur && !peak.CompareAndSwap(cur, g); cur = peak.Load() {
		}
	}
	pw.LaunchRanks("rank", func(p *sim.Proc, ep *Endpoint) {
		comm := ep.World().Comm()
		r := ep.Rank()
		var reqs []*Request
		for j := 1; j <= 3; j++ {
			d := j * n / parts
			for k, size := range []int{256, EagerThreshold + 512} {
				req, err := ep.Irecv(p, make([]byte, size), (r-d+n)%n, 2*j+k, Bytes, comm)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, req)
				if req, err = ep.Isend(p, make([]byte, size), (r+d)%n, 2*j+k, Bytes, comm); err != nil {
					panic(err)
				}
				reqs = append(reqs, req)
			}
		}
		sample()
		if err := Waitall(p, reqs...); err != nil {
			panic(err)
		}
		sample()
		if err := ep.Barrier(p, comm); err != nil {
			panic(err)
		}
		sample()
	})
	base := int64(runtime.NumGoroutine())
	if err := pw.Run(parts); err != nil {
		t.Fatalf("run: %v", err)
	}
	above := peak.Load() - base
	t.Logf("peak goroutines above baseline: %d", above)
	if above > n+parts {
		t.Fatalf("peak goroutines above baseline = %d, want at most %d ranks + %d workers", above, n, parts)
	}
}

package mpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Equivalence gate for the matching-engine refactor: the bucketed O(1)
// matcher must reproduce the legacy communicator-wide linear scans byte for
// byte — every message protocol event (kind, envelope, seq, queue depths,
// virtual timestamp), every link occupancy event, every delivered payload
// and receive status, and the final engine time — on both preset systems,
// including AnySource/AnyTag wildcards and the collectives' internal
// negative-tag traffic. Each scenario runs twice, once per engine
// (legacy_test.go holds the verbatim scans), and the outputs are compared
// exactly: identical MsgMatched seq streams mean identical pairings, and
// identical timestamps mean every virtual end time is preserved.

// mLinkEvent is one captured link occupancy interval.
type mLinkEvent struct {
	link       string
	bytes      int64
	start, end sim.Time
}

type mLinkLog struct{ evs []mLinkEvent }

func (l *mLinkLog) LinkBusy(link, _, _ string, bytes int64, start, end sim.Time) {
	l.evs = append(l.evs, mLinkEvent{link, bytes, start, end})
}

type msgLog struct{ evs []MsgEvent }

func (l *msgLog) MessageEvent(ev MsgEvent) { l.evs = append(l.evs, ev) }

// matchRun is everything a scenario produced that must match exactly.
type matchRun struct {
	msgs    []MsgEvent
	links   []mLinkEvent
	end     sim.Time
	payload []byte
}

// runMatchScenario executes body on every rank of an n-rank world over the
// chosen matching engine and captures all observables.
func runMatchScenario(t *testing.T, sys cluster.System, n int, legacy bool,
	body func(p *sim.Proc, ep *Endpoint, w *World, out *[]byte)) matchRun {
	t.Helper()
	e := sim.NewEngine()
	if sys.MaxNodes < n {
		// Matching semantics don't depend on the preset's node-count guard;
		// the scenarios just need enough ranks for their traffic patterns.
		sys.MaxNodes = n
	}
	clus := cluster.New(e, sys, n)
	ll := &mLinkLog{}
	clus.Observe(ll)
	w := NewWorld(clus)
	if legacy {
		useLegacyMatching(w)
	}
	ml := &msgLog{}
	w.SetMsgObserver(ml)
	outs := make([][]byte, n)
	w.LaunchRanks("mequiv", func(p *sim.Proc, ep *Endpoint) {
		body(p, ep, w, &outs[ep.Rank()])
	})
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	var payload []byte
	for _, b := range outs {
		payload = append(payload, b...)
	}
	return matchRun{msgs: ml.evs, links: ll.evs, end: e.Now(), payload: payload}
}

// compareMatchRuns fails on the first divergence between the two engines.
func compareMatchRuns(t *testing.T, name string, legacy, bucketed matchRun) {
	t.Helper()
	if legacy.end != bucketed.end {
		t.Errorf("%s: end time legacy=%v bucketed=%v", name, legacy.end, bucketed.end)
	}
	if len(legacy.msgs) != len(bucketed.msgs) {
		t.Fatalf("%s: msg event count legacy=%d bucketed=%d", name, len(legacy.msgs), len(bucketed.msgs))
	}
	for i := range legacy.msgs {
		if legacy.msgs[i] != bucketed.msgs[i] {
			t.Fatalf("%s: msg event %d diverged\n  legacy:   %+v\n  bucketed: %+v",
				name, i, legacy.msgs[i], bucketed.msgs[i])
		}
	}
	if len(legacy.links) != len(bucketed.links) {
		t.Fatalf("%s: link event count legacy=%d bucketed=%d", name, len(legacy.links), len(bucketed.links))
	}
	for i := range legacy.links {
		if legacy.links[i] != bucketed.links[i] {
			t.Fatalf("%s: link event %d diverged\n  legacy:   %+v\n  bucketed: %+v",
				name, i, legacy.links[i], bucketed.links[i])
		}
	}
	if string(legacy.payload) != string(bucketed.payload) {
		t.Errorf("%s: payloads/statuses differ", name)
	}
}

// note appends a receive status to the rank's observable output.
func note(out *[]byte, st Status, err error) {
	*out = append(*out, []byte(fmt.Sprintf("(%d,%d,%d,%v)", st.Source, st.Tag, st.Count, err))...)
}

// pattern fills a deterministic payload.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

// denseExactBody is a dense all-to-several exact-envelope mesh mixing eager
// and rendezvous sizes with skewed posting delays, so both unexpected
// messages and posted receives pile up.
func denseExactBody(p *sim.Proc, ep *Endpoint, w *World, out *[]byte) {
	const msgs = 6
	n, r := ep.Size(), ep.Rank()
	done := sim.NewWaitGroup(p.Engine(), "ops")
	for k := 0; k < msgs; k++ {
		k := k
		size := 1 << (8 + k%4)
		if k%3 == 2 {
			size = EagerThreshold + 4096 // rendezvous
		}
		done.Add(2)
		p.Spawn("send", func(sp *sim.Proc) {
			defer done.Done()
			sp.Sleep(time.Duration((r*7+k*3)%11) * 100 * time.Microsecond)
			if err := ep.Send(sp, pattern(size, byte(r+k)), (r+1+k)%n, k, Bytes, w.Comm()); err != nil {
				panic(err)
			}
		})
		p.Spawn("recv", func(rp *sim.Proc) {
			defer done.Done()
			rp.Sleep(time.Duration((r*5+k*9)%13) * 100 * time.Microsecond)
			buf := make([]byte, EagerThreshold+4096)
			st, err := ep.Recv(rp, buf, (r-1-k%n+2*n)%n, k, Bytes, w.Comm())
			note(out, st, err)
			*out = append(*out, buf[:st.Count]...)
		})
	}
	done.Wait(p)
}

// wildcardBody drives AnySource / AnyTag / double-wildcard receivers against
// a fan-in of tagged senders, plus a truncated delivery. Wants 5 ranks: each
// source's two messages are covered by a disjoint class of receives
// (unique-tag AnySource for sources 1–2, per-source AnyTag for source 3,
// double wildcard — posted last, when only source 4's traffic can remain —
// for source 4), so wildcards cannot starve a later exact receive.
func wildcardBody(p *sim.Proc, ep *Endpoint, w *World, out *[]byte) {
	r := ep.Rank()
	recv := func(src, tag int) {
		buf := make([]byte, 4*EagerThreshold)
		st, err := ep.Recv(p, buf, src, tag, Bytes, w.Comm())
		note(out, st, err)
		*out = append(*out, buf[:st.Count]...)
	}
	if r == 0 {
		for _, k := range []int{10, 20, 11, 21} {
			recv(AnySource, k)
		}
		recv(3, AnyTag)
		recv(3, AnyTag)
		recv(AnySource, AnyTag)
		recv(AnySource, AnyTag)
		// Truncation: a 64-byte receive for a 1 KiB message. The go-ahead
		// send keeps tag 9 out of reach of the double wildcards above.
		if err := ep.Send(p, []byte{1}, 1, 99, Bytes, w.Comm()); err != nil {
			panic(err)
		}
		small := make([]byte, 64)
		st, err := ep.Recv(p, small, 1, 9, Bytes, w.Comm())
		note(out, st, err)
		return
	}
	for k := 0; k < 2; k++ {
		p.Sleep(time.Duration((r*3+k)%7) * 150 * time.Microsecond)
		size := 1024 + r*16 + k
		if (r+k)%2 == 1 {
			size = 2*EagerThreshold + r*64 + k // rendezvous through the wildcard path
		}
		if err := ep.Send(p, pattern(size, byte(r)), 0, r*10+k, Bytes, w.Comm()); err != nil {
			panic(err)
		}
	}
	if r == 1 {
		var go9 [1]byte
		if _, err := ep.Recv(p, go9[:], 0, 99, Bytes, w.Comm()); err != nil {
			panic(err)
		}
		if err := ep.Send(p, pattern(1024, 0xAA), 0, 9, Bytes, w.Comm()); err != nil {
			panic(err)
		}
	}
}

// collectiveBody exercises the internal negative-tag traffic: dissemination
// barrier, binomial broadcast, recursive-doubling allreduce, gather, and a
// closing Sendrecv ring.
func collectiveBody(p *sim.Proc, ep *Endpoint, w *World, out *[]byte) {
	n, r := ep.Size(), ep.Rank()
	if err := ep.Barrier(p, w.Comm()); err != nil {
		panic(err)
	}
	buf := make([]byte, 4096)
	if r == 2%n {
		copy(buf, pattern(len(buf), 0x5C))
	}
	if err := ep.Bcast(p, buf, 2%n, w.Comm()); err != nil {
		panic(err)
	}
	*out = append(*out, buf...)
	sum, err := ep.AllreduceSum(p, float64(r+1), w.Comm())
	if err != nil {
		panic(err)
	}
	*out = append(*out, []byte(fmt.Sprintf("sum=%g", sum))...)
	contrib := pattern(512, byte(r))
	var gathered []byte
	if r == 0 {
		gathered = make([]byte, 512*n)
	}
	if err := ep.Gather(p, contrib, gathered, 0, w.Comm()); err != nil {
		panic(err)
	}
	*out = append(*out, gathered...)
	sbuf, rbuf := pattern(EagerThreshold+512, byte(r)), make([]byte, EagerThreshold+512)
	st, err := ep.Sendrecv(p, sbuf, (r+1)%n, 3, rbuf, (r-1+n)%n, 3, w.Comm())
	note(out, st, err)
	*out = append(*out, rbuf...)
}

// ssendProbeBody mixes synchronous sends with blocking Probe and polled
// Iprobe consumers.
func ssendProbeBody(p *sim.Proc, ep *Endpoint, w *World, out *[]byte) {
	n, r := ep.Size(), ep.Rank()
	if r%2 == 0 {
		dst := (r + 1) % n
		p.Sleep(time.Duration(r) * 200 * time.Microsecond)
		if err := ep.Ssend(p, pattern(3000, byte(r)), dst, 5, w.Comm()); err != nil {
			panic(err)
		}
		if err := ep.Send(p, pattern(100, byte(r+1)), dst, 6, Bytes, w.Comm()); err != nil {
			panic(err)
		}
		return
	}
	st, err := ep.Probe(p, AnySource, 5, w.Comm())
	note(out, st, err)
	buf := make([]byte, st.Count)
	st, err = ep.Recv(p, buf, st.Source, st.Tag, Bytes, w.Comm())
	note(out, st, err)
	*out = append(*out, buf...)
	for {
		ok, st, err := ep.Iprobe(AnySource, 6, w.Comm())
		if err != nil {
			panic(err)
		}
		if ok {
			note(out, st, err)
			break
		}
		p.Sleep(50 * time.Microsecond)
	}
	buf = make([]byte, 100)
	st, err = ep.Recv(p, buf, AnySource, 6, Bytes, w.Comm())
	note(out, st, err)
	*out = append(*out, buf...)
}

// TestMatchEquivalence is the refactor gate across both preset systems.
func TestMatchEquivalence(t *testing.T) {
	scenarios := []struct {
		name  string
		ranks int
		body  func(p *sim.Proc, ep *Endpoint, w *World, out *[]byte)
	}{
		{"dense-exact", 6, denseExactBody},
		{"wildcards", 5, wildcardBody},
		{"collectives", 7, collectiveBody},
		{"ssend-probe", 4, ssendProbeBody},
	}
	for _, sys := range []cluster.System{cluster.Cichlid(), cluster.RICC()} {
		for _, sc := range scenarios {
			name := fmt.Sprintf("%s/%s", sys.Name, sc.name)
			t.Run(name, func(t *testing.T) {
				legacy := runMatchScenario(t, sys, sc.ranks, true, sc.body)
				bucketed := runMatchScenario(t, sys, sc.ranks, false, sc.body)
				if len(legacy.msgs) == 0 {
					t.Fatal("scenario produced no message events")
				}
				compareMatchRuns(t, name, legacy, bucketed)
			})
		}
	}
}

// TestMatchEquivalenceSelfSend pins the intra-node copy-elision prediction:
// a pre-posted receive must make firstMatch and the real match agree (direct
// delivery), with identical event streams under both engines.
func TestMatchEquivalenceSelfSend(t *testing.T) {
	body := func(p *sim.Proc, ep *Endpoint, w *World, out *[]byte) {
		if ep.Rank() != 0 {
			return
		}
		buf := make([]byte, 8192)
		req, err := ep.Irecv(p, buf, 0, 4, Bytes, w.Comm())
		if err != nil {
			panic(err)
		}
		if err := ep.Send(p, pattern(8192, 0x21), 0, 4, Bytes, w.Comm()); err != nil {
			panic(err)
		}
		st, err := req.Wait(p)
		note(out, st, err)
		*out = append(*out, buf...)
		// And the unexpected direction: send first, then receive.
		if err := ep.Send(p, pattern(512, 0x22), 0, 8, Bytes, w.Comm()); err != nil {
			panic(err)
		}
		st, err = ep.Recv(p, buf[:512], 0, 8, Bytes, w.Comm())
		note(out, st, err)
	}
	legacy := runMatchScenario(t, cluster.RICC(), 2, true, body)
	bucketed := runMatchScenario(t, cluster.RICC(), 2, false, body)
	compareMatchRuns(t, "self-send", legacy, bucketed)
}

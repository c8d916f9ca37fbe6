package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Engine-level unit tests for the bucketed matcher, driven with raw
// message/recvOp values (no simulation): lane FIFO order, the min-seq merge
// across wildcard lanes, sentinel guards, and — the regression the refactor
// was partly for — that removal never retains pointers.

func mkMsg(src, dst, tag int, seq uint64) *message {
	return &message{src: src, dst: dst, tag: tag, seq: seq, size: 1}
}

func mkRecv(owner, src, tag int, seq uint64) *recvOp {
	return &recvOp{owner: owner, src: src, tag: tag, seq: seq}
}

func TestBucketMatcherMinSeqMerge(t *testing.T) {
	m := newBucketMatcher(4)
	// Four lanes can accept (src=1, tag=7) at dst 2; the smallest seq must
	// win regardless of which lane holds it.
	exact := mkRecv(2, 1, 7, 40)
	anySrc := mkRecv(2, AnySource, 7, 30)
	anyTag := mkRecv(2, 1, AnyTag, 20)
	dblWild := mkRecv(2, AnySource, AnyTag, 10)
	for _, r := range []*recvOp{exact, anySrc, anyTag, dblWild} {
		m.addRecv(r)
	}
	want := []*recvOp{dblWild, anyTag, anySrc, exact}
	for i, w := range want {
		got := m.matchMsg(mkMsg(1, 2, 7, 100+uint64(i)), true)
		if got != w {
			t.Fatalf("match %d: got seq %d, want seq %d", i, got.seq, w.seq)
		}
	}
	if got := m.matchMsg(mkMsg(1, 2, 7, 200), true); got != nil {
		t.Fatalf("drained bucket still matched seq %d", got.seq)
	}
}

func TestBucketMatcherLaneFIFO(t *testing.T) {
	m := newBucketMatcher(2)
	a, b, c := mkMsg(0, 1, 3, 1), mkMsg(0, 1, 3, 2), mkMsg(0, 1, 3, 3)
	for _, msg := range []*message{a, b, c} {
		m.addMsg(msg)
	}
	for i, want := range []*message{a, b, c} {
		got := m.takeMsg(mkRecv(1, 0, 3, uint64(10+i)))
		if got != want {
			t.Fatalf("take %d: got seq %d, want seq %d", i, got.seq, want.seq)
		}
	}
}

func TestBucketMatcherSentinelGuards(t *testing.T) {
	m := newBucketMatcher(2)
	m.addRecv(mkRecv(1, AnySource, AnyTag, 1))
	m.addRecv(mkRecv(1, 0, AnyTag, 2))
	// Internal collective traffic (negative tags) must never match an AnyTag
	// receive — mirroring matches().
	if got := m.matchMsg(mkMsg(0, 1, -1000, 5), true); got != nil {
		t.Fatalf("negative-tag message matched wildcard receive seq %d", got.seq)
	}
	m.addRecv(mkRecv(1, AnySource, -1000, 3))
	if got := m.matchMsg(mkMsg(0, 1, -1000, 6), true); got == nil || got.seq != 3 {
		t.Fatalf("negative-tag message did not match its exact-tag wildcard-source receive: %+v", got)
	}
}

func TestBucketMatcherWildcardProbeArrivalOrder(t *testing.T) {
	m := newBucketMatcher(2)
	m.addMsg(mkMsg(0, 1, 5, 1))
	m.addMsg(mkMsg(0, 1, 9, 2))
	m.addMsg(mkMsg(0, 1, 5, 3))
	if got := m.peekMsg(1, AnySource, AnyTag); got == nil || got.seq != 1 {
		t.Fatalf("double wildcard probe: got %+v, want seq 1", got)
	}
	if got := m.peekMsg(1, AnySource, 9); got == nil || got.seq != 2 {
		t.Fatalf("tag-9 probe: got %+v, want seq 2", got)
	}
	if got := m.takeMsg(mkRecv(1, 0, AnyTag, 10)); got == nil || got.seq != 1 {
		t.Fatalf("AnyTag take: got %+v, want seq 1", got)
	}
	if got := m.takeMsg(mkRecv(1, 0, AnyTag, 11)); got == nil || got.seq != 2 {
		t.Fatalf("AnyTag take after removal: got %+v, want seq 2", got)
	}
}

// unlinked reports whether every intrusive link of msg is nil.
func msgUnlinked(msg *message) bool {
	return msg.laneNext == nil && msg.lanePrev == nil &&
		msg.arrNext == nil && msg.arrPrev == nil
}

// TestBucketMatcherNoPointerRetention is the leak-style regression test for
// the old append(s[:i], s[i+1:]...) removals, which kept dropped entries
// reachable from the slice tail. With intrusive lists, a removed element must
// come back with every link nil — holding no queue memory and being held by
// none — even when removed from the middle of both its lane and the arrival
// list.
func TestBucketMatcherNoPointerRetention(t *testing.T) {
	m := newBucketMatcher(3)
	var msgs []*message
	for i := 0; i < 9; i++ {
		msg := mkMsg(i%3, 2, 4+i%2, uint64(i+1))
		msgs = append(msgs, msg)
		m.addMsg(msg)
	}
	// Remove from the middle first, then head, then tail.
	for _, i := range []int{4, 0, 8, 2, 6, 1, 5, 3, 7} {
		m.removeMsg(msgs[i])
		if !msgUnlinked(msgs[i]) {
			t.Fatalf("message %d retains links after removal: %+v", i, msgs[i])
		}
	}
	var rops []*recvOp
	for i := 0; i < 6; i++ {
		rop := mkRecv(2, AnySource, 4+i%2, uint64(100+i))
		rops = append(rops, rop)
		m.addRecv(rop)
	}
	for _, i := range []int{2, 0, 5, 1, 4, 3} {
		m.removeRecv(rops[i])
		if rops[i].laneNext != nil || rops[i].lanePrev != nil {
			t.Fatalf("receive %d retains links after removal", i)
		}
	}
	for r := 0; r < 3; r++ {
		if p, u := m.depths(r); p != 0 || u != 0 {
			t.Fatalf("rank %d not drained: posted=%d unexpected=%d", r, p, u)
		}
		b := &m.buckets[r]
		if b.arrHead != nil || b.arrTail != nil {
			t.Fatalf("rank %d arrival list not empty", r)
		}
		for k, i := range b.index {
			if ln := b.lanes[i]; ln != (lane{}) {
				t.Fatalf("rank %d lane %v not empty", r, k)
			}
		}
	}
	if p, u := m.highWater(2); p != 6 || u != 9 {
		t.Fatalf("high-water marks: posted=%d unexpected=%d, want 6/9", p, u)
	}
}

// TestMatchDrainAfterWorkload runs a real simulation and then checks the
// production communicator's matcher is fully drained: no lingering queue
// entries and zero depths on every rank — the end-to-end form of the
// retention regression test.
func TestMatchDrainAfterWorkload(t *testing.T) {
	e := sim.NewEngine()
	w := NewWorld(cluster.New(e, cluster.RICC(), 8))
	w.LaunchRanks("drain", func(p *sim.Proc, ep *Endpoint) {
		denseExactBody(p, ep, w, new([]byte))
		if err := ep.Barrier(p, w.Comm()); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	m, ok := w.world.match.(*bucketMatcher)
	if !ok {
		t.Fatalf("world is not on the bucket matcher: %T", w.world.match)
	}
	for r := 0; r < w.Size(); r++ {
		if p, u := m.depths(r); p != 0 || u != 0 {
			t.Errorf("rank %d: posted=%d unexpected=%d after drain", r, p, u)
		}
		b := &m.buckets[r]
		if b.arrHead != nil || b.arrTail != nil {
			t.Errorf("rank %d: arrival list not empty", r)
		}
		for k, i := range b.index {
			if ln := b.lanes[i]; ln.msgHead != nil {
				t.Errorf("rank %d: msg lane %v holds seq %d", r, k, ln.msgHead.seq)
			} else if ln.recvHead != nil {
				t.Errorf("rank %d: recv lane %v holds seq %d", r, k, ln.recvHead.seq)
			}
		}
		hp, hu := w.Comm().MatchQueueHighWater(r)
		if hp <= 0 && hu <= 0 {
			t.Errorf("rank %d: high-water marks never moved (posted=%d unexpected=%d)", r, hp, hu)
		}
	}
}

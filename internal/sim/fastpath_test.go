package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestReadyRingWrapAround pushes and pops across the ring's growth and wrap
// boundaries, checking FIFO order throughout.
func TestReadyRingWrapAround(t *testing.T) {
	var r procRing
	mk := func(i int) *Proc { return &Proc{name: fmt.Sprintf("p%d", i)} }
	// Interleave pushes and pops so head walks around the backing array.
	next, want := 0, 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			r.push(mk(next))
			next++
		}
		for i := 0; i < 2; i++ {
			got := r.pop()
			if got.name != fmt.Sprintf("p%d", want) {
				t.Fatalf("round %d: popped %s, want p%d", round, got.name, want)
			}
			want++
		}
	}
	for r.len() > 0 {
		got := r.pop()
		if got.name != fmt.Sprintf("p%d", want) {
			t.Fatalf("drain: popped %s, want p%d", got.name, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d items, pushed %d", want, next)
	}
}

// TestReadyRingReleasesPoppedSlots checks the satellite fix: popped slots are
// nilled out so the ring does not keep finished processes reachable the way
// the old `ready = ready[1:]` head-slicing did.
func TestReadyRingReleasesPoppedSlots(t *testing.T) {
	var r procRing
	for i := 0; i < 4; i++ {
		r.push(&Proc{})
	}
	for i := 0; i < 4; i++ {
		r.pop()
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a process after pop", i)
		}
	}
}

// TestTimerCacheOrdering drives the nextTimer cache through every insertion
// case (empty, displacing the cached minimum, overflowing to the heap) and
// checks events still fire in (time, seq) order.
func TestTimerCacheOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	// Schedule out of order: the 5ms timer lands in the cache, 2ms displaces
	// it, 8ms and 1ms exercise both heap branches.
	for _, d := range []time.Duration{5, 2, 8, 1} {
		d := d
		eng.After(d*time.Millisecond, func() { order = append(order, int(d)) })
	}
	eng.Spawn("idle", func(p *Proc) { p.Sleep(10 * time.Millisecond) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 5, 8}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestTimerCacheSameInstantFIFO checks that simultaneous timers keep schedule
// order across the cache/heap split.
func TestTimerCacheSameInstantFIFO(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		eng.After(time.Millisecond, func() { order = append(order, i) })
	}
	eng.Spawn("idle", func(p *Proc) { p.Sleep(2 * time.Millisecond) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant timers fired as %v, want schedule order", order)
		}
	}
}

// TestYieldFastPathPreservesOrder checks that the zero-duration fast path
// only short-circuits when nothing else can run: with a peer ready at the
// same instant, Yield still lets it run first.
func TestYieldFastPathPreservesOrder(t *testing.T) {
	eng := NewEngine()
	var order []string
	eng.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield() // b is ready at this instant: must run before a resumes
		order = append(order, "a2")
	})
	eng.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestYieldFastPathAlone checks a lone process can spin on Yield without
// deadlocking or advancing the clock (the fast path returns immediately).
func TestYieldFastPathAlone(t *testing.T) {
	eng := NewEngine()
	eng.Spawn("solo", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Yield()
		}
		if p.Now() != 0 {
			t.Errorf("clock advanced to %v across yields", p.Now())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestYieldSlowPathWithPendingSameInstantTimer checks that a timer due at the
// current instant still runs before a yielding process resumes.
func TestYieldSlowPathWithPendingSameInstantTimer(t *testing.T) {
	eng := NewEngine()
	var order []string
	eng.Spawn("p", func(p *Proc) {
		// Arrange a callback at the current instant, then yield: the
		// callback must observe the yield (run before p resumes).
		p.Engine().After(0, func() { order = append(order, "timer") })
		p.Yield()
		order = append(order, "proc")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "timer" || order[1] != "proc" {
		t.Fatalf("order %v, want [timer proc]", order)
	}
}

// TestTimerHeapMatchesSortedReference drives the 4-ary timer heap with
// random interleavings of pushes and pops, over a narrow range of instants
// so most of them tie, and checks every pop against a sorted reference:
// the heap must yield exactly the (at, seq) order.
func TestTimerHeapMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		var h timerHeap
		var ref []timerEvent
		var seq uint64
		spread := 1 + rng.Intn(8) // at most 8 distinct instants
		for op := 0; op < 400; op++ {
			if len(ref) == 0 || rng.Intn(3) > 0 {
				seq++
				ev := timerEvent{at: Time(rng.Intn(spread)), seq: seq}
				h.push(ev)
				ref = append(ref, ev)
				continue
			}
			sort.Slice(ref, func(i, j int) bool { return timerBefore(ref[i], ref[j]) })
			got, want := h.pop(), ref[0]
			ref = ref[1:]
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("round %d op %d: popped (%v, %d), want (%v, %d)", round, op, got.at, got.seq, want.at, want.seq)
			}
			if len(h) != len(ref) {
				t.Fatalf("round %d op %d: heap holds %d, want %d", round, op, len(h), len(ref))
			}
		}
		sort.Slice(ref, func(i, j int) bool { return timerBefore(ref[i], ref[j]) })
		for _, want := range ref {
			if got := h.pop(); got.at != want.at || got.seq != want.seq {
				t.Fatalf("round %d drain: popped (%v, %d), want (%v, %d)", round, got.at, got.seq, want.at, want.seq)
			}
		}
		if len(h) != 0 {
			t.Fatalf("round %d: %d timers left after drain", round, len(h))
		}
	}
}

// BenchmarkYieldFastPath measures the zero-duration run-to-completion path.
func BenchmarkYieldFastPath(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	eng.Spawn("spin", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

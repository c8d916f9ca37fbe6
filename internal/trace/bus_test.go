package trace

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func ms(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

func TestBusRecordAndEnd(t *testing.T) {
	b := NewBus()
	b.Span(LayerCL, "q0", "kernel k", ms(0), ms(4), AInt("bytes", 128))
	b.Span(LayerCluster, "node0.tx", "xfer", ms(6), ms(2)) // reversed: normalized
	b.Instant(LayerApp, "rank0", "iter 0", ms(1))
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[1].Start != ms(2) || evs[1].End != ms(6) {
		t.Fatalf("reversed span not normalized: %+v", evs[1])
	}
	if evs[2].Ph != PhaseInstant || evs[2].End != evs[2].Start {
		t.Fatalf("instant shape wrong: %+v", evs[2])
	}
	if evs[0].Args[0] != (Arg{"bytes", "128"}) {
		t.Fatalf("args = %+v", evs[0].Args)
	}
	if b.End() != ms(6) {
		t.Fatalf("end = %v", b.End())
	}
}

func TestOverlap(t *testing.T) {
	b := NewBus()
	// Compute [0,10); comm [4,8) and [12,14): 4ms overlap of 6ms comm.
	b.Span(LayerCL, "q", "kernel k", ms(0), ms(10))
	b.Span(LayerCL, "q", "clmpi.send x", ms(4), ms(8))
	b.Span(LayerMPI, "rank0->rank1", "msg", ms(12), ms(14))
	if got := b.Overlap(isCompute, isComm); got != 4*time.Millisecond {
		t.Fatalf("overlap = %v", got)
	}
	want := 4.0 / 6.0
	if got := b.OverlapRatio(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ratio = %v, want %v", got, want)
	}
}

func TestOverlapRatioNoComm(t *testing.T) {
	b := NewBus()
	b.Span(LayerCL, "q", "kernel k", ms(0), ms(10))
	if got := b.OverlapRatio(); got != 0 {
		t.Fatalf("ratio with no comm = %v", got)
	}
}

func TestOverlapUnionMergesLanes(t *testing.T) {
	// Two comm spans on different lanes covering [0,6) together must not be
	// double counted against a [0,6) kernel.
	b := NewBus()
	b.Span(LayerCL, "q", "kernel k", ms(0), ms(6))
	b.Span(LayerMPI, "a", "msg", ms(0), ms(4))
	b.Span(LayerMPI, "b", "msg", ms(2), ms(6))
	if got := b.Overlap(isCompute, isComm); got != 6*time.Millisecond {
		t.Fatalf("merged overlap = %v", got)
	}
	if got := b.OverlapRatio(); got != 1 {
		t.Fatalf("ratio = %v, want 1", got)
	}
}

func TestIterationOverlap(t *testing.T) {
	b := NewBus()
	// iter 0: [0,10) — comm [0,4) fully under kernel [0,10).
	// iter 1: [10,20) — comm [12,16), no kernel.
	b.Instant(LayerApp, "rank0", "iter 0", ms(0))
	b.Instant(LayerApp, "rank1", "iter 0", ms(1)) // duplicate name: earliest wins
	b.Instant(LayerApp, "rank0", "iter 1", ms(10))
	b.Span(LayerCL, "q", "kernel k", ms(0), ms(10))
	b.Span(LayerMPI, "m", "msg", ms(0), ms(4))
	b.Span(LayerMPI, "m", "msg", ms(12), ms(16))
	got := b.IterationOverlap()
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("iteration overlap = %v", got)
	}
	if NewBus().IterationOverlap() != nil {
		t.Fatal("no markers should yield nil")
	}
}

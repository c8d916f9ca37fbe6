package main

import (
	"math"
	"runtime/metrics"
	"testing"
)

func TestHistDeltaAndQuantile(t *testing.T) {
	buckets := []float64{0, 1, 2, 4, math.Inf(1)}
	a := &metrics.Float64Histogram{Buckets: buckets, Counts: []uint64{1, 1, 0, 0}}
	b := &metrics.Float64Histogram{Buckets: buckets, Counts: []uint64{3, 5, 1, 1}}
	d := histDelta(a, b)
	want := []uint64{2, 4, 1, 1}
	for i := range want {
		if d.Counts[i] != want[i] {
			t.Fatalf("delta counts = %v, want %v", d.Counts, want)
		}
	}
	if b.Counts[0] != 3 {
		t.Error("histDelta modified its input")
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.25, 1}, // 2 of 8 samples sit in [0,1)
		{0.5, 2},  // the 4th sample is in [1,2)
		{0.75, 2}, // the 6th too
		{0.8, 4},  // the 7th is in [2,4)
		// The top bucket is unbounded: report its lower edge.
		{1, 4},
	}
	for _, c := range cases {
		got, n := histQuantile(d, c.q)
		if got != c.want || n != 8 {
			t.Errorf("histQuantile(q=%v) = %v (n=%d), want %v (n=8)", c.q, got, n, c.want)
		}
	}
	if v, n := histQuantile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("histQuantile(nil) = %v, %d", v, n)
	}
	empty := &metrics.Float64Histogram{Buckets: buckets, Counts: make([]uint64, 4)}
	if v, n := histQuantile(empty, 0.5); v != 0 || n != 0 {
		t.Errorf("histQuantile(empty) = %v, %d", v, n)
	}
	// A missing earlier reading means "everything so far".
	if d := histDelta(nil, b); d.Counts[1] != 5 {
		t.Errorf("histDelta(nil, b) = %v", d.Counts)
	}
}

func TestAddHist(t *testing.T) {
	buckets := []float64{0, 1, 2}
	x := &metrics.Float64Histogram{Buckets: buckets, Counts: []uint64{1, 2}}
	sum := addHist(nil, x)
	sum = addHist(sum, x)
	sum = addHist(sum, nil)
	if sum.Counts[0] != 2 || sum.Counts[1] != 4 || x.Counts[0] != 1 {
		t.Errorf("addHist = %v (input now %v)", sum.Counts, x.Counts)
	}
}

var sink [][]byte

func TestSnapshotDeltas(t *testing.T) {
	a := readRuntime()
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	sink = nil
	b := readRuntime()
	if got := delta(a, b, mAllocBytes); got < 1000*1024 {
		t.Errorf("allocated-bytes delta = %v, want >= %d", got, 1000*1024)
	}
	if got := delta(a, b, mAllocObjs); got < 1000 {
		t.Errorf("allocated-objects delta = %v, want >= 1000", got)
	}
	if b.wall.Before(a.wall) || b.cpu < a.cpu {
		t.Error("wall clock or CPU time went backwards")
	}
	if schedHist(b) == nil {
		t.Error("no scheduling-latency histogram")
	}
	if got := delta(a, b, "/no/such:metric"); got != 0 {
		t.Errorf("delta of an unknown metric = %v, want 0", got)
	}
}

func TestPeakSampler(t *testing.T) {
	ps := startPeakSampler()
	ps.finish()
	if ps.goroutines < 1 || ps.stackBytes <= 0 {
		t.Errorf("sampler saw %v goroutines, %v stack bytes", ps.goroutines, ps.stackBytes)
	}
}

package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.8, 4}, {0.99, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

func TestQuantileTies(t *testing.T) {
	// Ties never produce a value between samples.
	xs := []float64{2, 2, 2, 9}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := quantile(xs, 0.75); got != 2 {
		t.Errorf("p75 = %v, want 2", got)
	}
	if got := quantile(xs, 0.76); got != 9 {
		t.Errorf("p76 = %v, want 9", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v, want 7", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1
	}
	// p99 of 200 samples is rank 198: two samples lie beyond it.
	if l := summarize(xs); l.N != 200 || l.P50 != 100 || l.P99 != 198 {
		t.Errorf("summarize = %+v", l)
	}
	// 0.99·1000 must not round up past rank 990.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if l := summarize(big); l.P99 != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", l.P99)
	}
	if l := summarize(nil); l.N != 0 || l.P50 != 0 || math.IsNaN(l.P99) {
		t.Errorf("summarize(nil) = %+v", l)
	}
}

package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// method: the smallest sample with at least q·n samples at or below it. Ties
// need no special handling — equal samples are interchangeable — and the
// result is always one of the samples, never an interpolation. xs is not
// modified; an empty xs yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(rank(q, len(s)), 1), len(s))-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// epsilon keeps products like 0.99·1000 from rounding up past an exact
// integer.
func rank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latency summarizes one population of per-operation latencies.
type latency struct {
	N        int // sample count
	P50, P99 float64
}

func summarize(xs []float64) latency {
	return latency{N: len(xs), P50: quantile(xs, 0.5), P99: quantile(xs, 0.99)}
}

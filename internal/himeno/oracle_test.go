package himeno

import (
	"math"
	"math/rand"
	"testing"
)

// initCell and stencilCell are the per-cell kernels the row kernels
// replaced, kept verbatim as oracles for the differential tests below.

// initCell returns the initial pressure at global (i,j,k).
func initCell(mode InitMode, s Size, i, j, k int) float32 {
	x := float32(i) / float32(s.I-1)
	v := x * x
	if mode == ScrambledInit {
		// Cheap deterministic hash → [0, 0.25) perturbation.
		h := uint32(i*73856093) ^ uint32(j*19349663) ^ uint32(k*83492791)
		v += float32(h%1024) / 4096
	}
	return v
}

// stencilCell computes the benchmark's update for one interior cell of p
// (dimensions J×K per plane) and returns the new value and the squared
// residual contribution.
func stencilCell(p []float32, J, K, i, j, k int) (float32, float64) {
	at := func(i, j, k int) float32 { return p[(i*J+j)*K+k] }
	s0 := at(i+1, j, k) + at(i, j+1, k) + at(i, j, k+1) +
		at(i-1, j, k) + at(i, j-1, k) + at(i, j, k-1)
	ss := s0*float32(1.0/6.0) - at(i, j, k)
	nv := at(i, j, k) + Omega*ss
	return nv, float64(ss) * float64(ss)
}

// oracleShapes are small grids with odd extents, down to the narrowest
// row that has an interior cell (K = 3).
var oracleShapes = []Size{
	{"t", 3, 3, 3}, {"t", 4, 5, 3}, {"t", 5, 3, 7}, {"t", 7, 9, 11}, {"t", 6, 13, 4},
}

func TestInitRowMatchesInitCell(t *testing.T) {
	for _, s := range append(oracleShapes, SizeXS) {
		for _, mode := range []InitMode{OfficialInit, ScrambledInit} {
			row := make([]float32, s.K)
			for i := 0; i < s.I; i++ {
				for j := 0; j < s.J; j++ {
					initRow(mode, s, i, j, row)
					for k, got := range row {
						if want := initCell(mode, s, i, j, k); math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%dx%dx%d mode %d (%d,%d,%d): initRow %v, initCell %v",
								s.I, s.J, s.K, mode, i, j, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestStencilRowMatchesStencilCell sweeps seeded random grids with both
// kernels and requires the same output bits and the same gosa bits.
func TestStencilRowMatchesStencilCell(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range oracleShapes {
		for trial := 0; trial < 20; trial++ {
			src := make([]float32, s.I*s.J*s.K)
			for x := range src {
				src[x] = rng.Float32()*4 - 2
			}
			got := append([]float32(nil), src...)
			want := append([]float32(nil), src...)
			// A nonzero starting residual checks that gosa is threaded
			// through, not restarted per row.
			gotGosa := rng.Float64()
			wantGosa := gotGosa
			for i := 1; i < s.I-1; i++ {
				for j := 1; j < s.J-1; j++ {
					gotGosa = stencilRow(src, got, s.J, s.K, i, j, gotGosa)
					for k := 1; k < s.K-1; k++ {
						nv, ss := stencilCell(src, s.J, s.K, i, j, k)
						want[idx(s.J, s.K, i, j, k)] = nv
						wantGosa += ss
					}
				}
			}
			for x := range want {
				if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
					t.Fatalf("%dx%dx%d trial %d: cell %d = %v, want %v", s.I, s.J, s.K, trial, x, got[x], want[x])
				}
			}
			if math.Float64bits(gotGosa) != math.Float64bits(wantGosa) {
				t.Fatalf("%dx%dx%d trial %d: gosa %v, want %v", s.I, s.J, s.K, trial, gotGosa, wantGosa)
			}
		}
	}
}

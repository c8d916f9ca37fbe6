// Package himeno implements the Himeno benchmark — the 19-point Jacobi
// pressure solver the clMPI paper evaluates in §V-C — in three distributed
// forms on the simulated GPU cluster:
//
//   - Serial: kernel execution and all data transfers fully serialized
//     (the paper's lower bound);
//   - HandOpt: the hand-optimized two-queue implementation of Fig. 2, which
//     overlaps each half-domain's computation with the other half's halo
//     exchange, the host thread blocking to serialize MPI and OpenCL;
//   - CLMPI: the extension-based implementation of Fig. 6, where halo
//     exchanges are clEnqueueSendBuffer/clEnqueueRecvBuffer commands ordered
//     purely by events, and the host thread only calls clFinish once per
//     iteration.
//
// The solver is numerically real: all three implementations produce final
// pressure grids bit-identical to a host-only reference solver, which the
// test suite verifies. The domain is decomposed along i; each rank's domain
// is halved into an upper part A and lower part B following Fig. 3, so each
// half's halo exchange can hide behind the other half's kernel.
package himeno

import (
	"fmt"
	"math"
)

// Omega is the Jacobi over-relaxation factor of the official benchmark.
const Omega = float32(0.8)

// FLOPsPerCell is the conventional operation count the benchmark's MFLOPS
// figures are computed with.
const FLOPsPerCell = 34.0

// Size is a Himeno problem size (official grid dimensions).
type Size struct {
	Name    string
	I, J, K int
}

// The official benchmark sizes (XS 32³·64 … L 256³·512 cells), with the
// long axis mapped to i so the 1-D decomposition of Fig. 3 has enough planes
// for up to 64 ranks.
var (
	SizeXS = Size{"XS", 65, 33, 33}
	SizeS  = Size{"S", 129, 65, 65}
	SizeM  = Size{"M", 257, 129, 129}
	SizeL  = Size{"L", 513, 257, 257}
)

// SizeByName resolves an official size name.
func SizeByName(name string) (Size, error) {
	for _, s := range []Size{SizeXS, SizeS, SizeM, SizeL} {
		if s.Name == name {
			return s, nil
		}
	}
	return Size{}, fmt.Errorf("himeno: unknown size %q", name)
}

// InteriorCells reports the number of updated cells per iteration.
func (s Size) InteriorCells() int { return (s.I - 2) * (s.J - 2) * (s.K - 2) }

// FLOPsPerIter reports the nominal floating-point work of one iteration.
func (s Size) FLOPsPerIter() float64 { return FLOPsPerCell * float64(s.InteriorCells()) }

// idx flattens (i,j,k) for a grid with dimensions (·, J, K).
func idx(j0, k0, i, j, k int) int { return (i*j0+j)*k0 + k }

// InitMode selects the initial pressure field.
type InitMode int

const (
	// OfficialInit is the benchmark's p = (i/(imax-1))² profile.
	OfficialInit InitMode = iota
	// ScrambledInit adds deterministic j,k-dependent variation so halo
	// correctness in every direction is exercised by tests.
	ScrambledInit
)

// initRow fills row (the K cells of global row (i, j)) with the initial
// pressure field. Its conversions forbid fused multiply-adds, as in
// stencilRow.
func initRow(mode InitMode, s Size, i, j int, row []float32) {
	x := float32(i) / float32(s.I-1)
	v := float32(x * x)
	if mode != ScrambledInit {
		for k := range row {
			row[k] = v
		}
		return
	}
	// Cheap deterministic hash → [0, 0.25) perturbation.
	hij := uint32(i*73856093) ^ uint32(j*19349663)
	for k := range row {
		h := hij ^ uint32(k*83492791)
		row[k] = v + float32(float32(h%1024)/4096)
	}
}

// stencilRow applies the benchmark's update to the interior cells of row
// (i, j) of src (dimensions ·×J×K), writing them to dst, and returns gosa
// plus each cell's squared residual, added in k order (a per-row partial
// sum would round the float64 residual differently). Every implementation
// — the host reference and all device kernels — funnels through this
// function, which is what makes bitwise agreement between them a meaningful
// test.
//
// The explicit float32/float64 conversions round every product before it
// is added, which by the Go spec forbids fused multiply-adds: the results
// are the same bits on every architecture.
func stencilRow(src, dst []float32, J, K, i, j int, gosa float64) float64 {
	n := K - 2
	c := (i*J+j)*K + 1 // cell (i, j, 1)
	ctr := src[c:][:n]
	kp, km := src[c+1:][:n], src[c-1:][:n]
	jp, jm := src[c+K:][:n], src[c-K:][:n]
	ip, im := src[c+J*K:][:n], src[c-J*K:][:n]
	out := dst[c:][:n]
	// Official constant coefficients: a0..a2 = 1, a3 = 1/6, b = 0, c = 1,
	// wrk1 = 0, bnd = 1.
	for k := 0; k < n; k++ {
		s0 := ip[k] + jp[k] + kp[k] + im[k] + jm[k] + km[k]
		ss := float32(s0*float32(1.0/6.0)) - ctr[k]
		out[k] = ctr[k] + float32(Omega*ss)
		gosa += float64(float64(ss) * float64(ss))
	}
	return gosa
}

// Reference runs the solver on the host only and returns the final grid and
// the residual (gosa) of the last iteration. It is the ground truth the
// distributed implementations are verified against.
func Reference(s Size, iters int, mode InitMode) ([]float32, float64) {
	p := make([]float32, s.I*s.J*s.K)
	for i := 0; i < s.I; i++ {
		for j := 0; j < s.J; j++ {
			initRow(mode, s, i, j, p[idx(s.J, s.K, i, j, 0):][:s.K])
		}
	}
	wrk := make([]float32, len(p))
	copy(wrk, p)
	var gosa float64
	for it := 0; it < iters; it++ {
		gosa = 0
		for i := 1; i < s.I-1; i++ {
			for j := 1; j < s.J-1; j++ {
				gosa = stencilRow(p, wrk, s.J, s.K, i, j, gosa)
			}
		}
		p, wrk = wrk, p
	}
	return p, gosa
}

// relDiff reports the relative difference of two residuals.
func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

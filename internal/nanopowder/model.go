// Package nanopowder reproduces the paper's practical application (§V-D):
// a simulation of binary-alloy nanopowder growth in thermal plasma
// synthesis, in which the coagulation routine dominates (≈90 % of runtime),
// is parallelized with MPI across reactor cells and accelerated per node,
// and a coefficient table of about 42 MB must be distributed from the
// master's host thread to every node at every simulation step.
//
// Two distributed implementations mirror the paper's comparison:
//
//   - Baseline: the master distributes with plain MPI_Isend; each worker
//     does MPI_Recv into host memory followed by clEnqueueWriteBuffer —
//     network and PCIe fully serialized.
//   - CLMPI: the master sends with the CLMem datatype and workers post
//     clEnqueueRecvBuffer, so the runtime's pipelined transfer overlaps the
//     two hops and the coagulation kernel is gated on the receive event
//     instead of a blocked host thread.
//
// The physics is real: a discrete Smoluchowski coagulation system over
// size bins with a Brownian free-molecular collision kernel, nucleation
// source, and exact mass bookkeeping (overflow mass folds into the top bin).
// When a caller verifies (Config.Verify), both implementations produce
// bit-identical states, checked against a host-only reference; other runs
// are pure cost, with the same virtual time.
package nanopowder

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Params sizes the physical model. The defaults reproduce the paper's
// footprint: 40 cells × (two 256×256 float64 tables) ≈ 42 MB of coefficients
// per step.
type Params struct {
	Cells    int // reactor cells decomposed across ranks (paper: 40)
	Bins     int // particle size bins per cell (256)
	Steps    int // simulation steps
	SubSteps int // modelled integration sub-steps per step (cost only)
}

// DefaultParams returns the paper-scale configuration. SubSteps is
// calibrated so the coagulation phase takes ≈90 % of the single-node step
// (§V-D) while the per-step coefficient distribution remains a visible
// fraction at small node counts, as in Fig. 10.
func DefaultParams() Params {
	return Params{Cells: 40, Bins: 256, Steps: 3, SubSteps: 120}
}

// cellCoeffBytes is the wire size of one cell's coefficient tables:
// collision kernel K and coalescence efficiency E, each Bins×Bins float64.
func (p Params) cellCoeffBytes() int64 {
	return 2 * int64(p.Bins) * int64(p.Bins) * 8
}

// TotalCoeffBytes reports the full per-step coefficient volume (≈42 MB at
// the defaults, matching §V-D).
func (p Params) TotalCoeffBytes() int64 { return int64(p.Cells) * p.cellCoeffBytes() }

// coagFLOPsPerCell is the modelled floating-point work of one cell's
// coagulation integration per step: SubSteps sweeps over the Bins² pair
// space with ~8 operations each. Only the cost model uses SubSteps; the
// numerical state advances with one assembled update per step, which keeps
// the simulation's real (host) runtime tractable without changing any
// observable comparison between implementations.
func (p Params) coagFLOPsPerCell() float64 {
	return float64(p.SubSteps) * float64(p.Bins) * float64(p.Bins) * 8
}

// serialFLOPs is the modelled host work of the non-parallelized phenomena
// (nucleation, condensation, plasma fields) per step.
func (p Params) serialFLOPs() float64 {
	return 2.2e7 * float64(p.Cells)
}

// dt is the integration step; small enough to keep the explicit update
// positive for the initial conditions used here.
const dt = 1e-3

// model holds the scalar fields the master evolves serially and from which
// it builds every cell's coefficients. Cell populations live with the rank
// that owns the cell (initialPopulation).
type model struct {
	p    Params
	temp []float64 // cell temperature, evolved serially by the master
	cbrt []float64 // cbrt[i] = ∛(i+1), the radius scale of size bin i
}

func newModel(p Params) *model {
	m := &model{p: p, temp: make([]float64, p.Cells), cbrt: make([]float64, p.Bins)}
	for i := range m.cbrt {
		m.cbrt[i] = math.Cbrt(float64(i + 1))
	}
	for c := 0; c < p.Cells; c++ {
		// Hot core, cooler edges.
		x := float64(c)/float64(p.Cells-1) - 0.5
		m.temp[c] = 3000 - float64(1500*x*x)
	}
	return m
}

// initialPopulation returns one cell's initial number densities: a
// monomer-rich population with a tail, the same in every cell.
func initialPopulation(p Params) []float64 {
	n := make([]float64, p.Bins)
	for k := range n {
		n[k] = math.Exp(-float64(k) / 8)
	}
	return n
}

// advanceScalars is the serial phase: cool the plasma and report the
// per-cell nucleation rate for this step.
func (m *model) advanceScalars(step int) []float64 {
	src := make([]float64, m.p.Cells)
	for c := range m.temp {
		m.temp[c] *= 0.995
		// Nucleation strengthens as the vapour cools.
		src[c] = 0.05 * (3200 - m.temp[c]) / 3200
	}
	return src
}

// buildCoeffs computes one cell's coefficient tables for the current
// temperature and serializes them to wire format (little-endian float64,
// K table then E table). Like newModel and coagulateCell, it converts each
// product that feeds an addition explicitly: by the Go spec that rounds the
// product and so forbids a fused multiply-add, which keeps the model's bits
// the same on every architecture.
func (m *model) buildCoeffs(c int, out []byte) {
	p := m.p
	t := m.temp[c]
	kern0 := 1e-3 * math.Sqrt(t/3000)
	eff0 := 0.6 + float64(0.4*math.Exp(-t/3000))
	b := p.Bins
	for i := 0; i < b; i++ {
		si := float64(i + 1)
		for j := 0; j < b; j++ {
			sj := float64(j + 1)
			sum := m.cbrt[i] + m.cbrt[j]
			k := kern0 * sum * sum * math.Sqrt(1/si+1/sj)
			e := eff0 / (1 + float64(0.01*math.Abs(si-sj)))
			binary.LittleEndian.PutUint64(out[(i*b+j)*8:], math.Float64bits(k))
			binary.LittleEndian.PutUint64(out[(b*b+i*b+j)*8:], math.Float64bits(e))
		}
	}
}

// coagulateCell advances one cell's population by one step given its wire-
// format coefficients and nucleation source. The update is a discrete
// Smoluchowski system on linear bins (size of bin k is k+1):
//
//	gain(k) = ½ Σ_{i+j=k} K·E·n(i)·n(j)      (pairs forming size k+1)
//	loss(k) = n(k) Σ_j K·E·n(j)
//
// Pairs that exceed the top bin fold into it scaled by the size ratio, so
// total mass Σ (k+1)·n(k) is conserved exactly up to rounding — the
// invariant the tests check. This function is the single numerical kernel
// shared by the reference and both distributed implementations.
func coagulateCell(p Params, n []float64, coeffs []byte, source float64) {
	b := p.Bins
	ke := func(i, j int) float64 {
		k := math.Float64frombits(binary.LittleEndian.Uint64(coeffs[(i*b+j)*8:]))
		e := math.Float64frombits(binary.LittleEndian.Uint64(coeffs[(b*b+i*b+j)*8:]))
		return k * e
	}
	gain := make([]float64, b)
	loss := make([]float64, b)
	topSize := float64(b)
	for i := 0; i < b; i++ {
		if n[i] == 0 {
			continue
		}
		for j := i; j < b; j++ {
			rate := ke(i, j) * n[i] * n[j]
			if i == j {
				rate *= 0.5
			}
			loss[i] += rate
			loss[j] += rate
			sum := i + j + 2 // resulting size
			if sum <= b {
				gain[sum-1] += rate
			} else {
				// Oversize: fold into the top bin, conserving mass.
				gain[b-1] += rate * float64(sum) / topSize
			}
		}
	}
	for k := 0; k < b; k++ {
		n[k] += float64(dt * (gain[k] - loss[k]))
		if n[k] < 0 {
			n[k] = 0
		}
	}
	n[0] += float64(dt * source)
}

// mass reports Σ size·n over one population.
func mass(n []float64) float64 {
	var m float64
	for k, v := range n {
		m += float64(k+1) * v
	}
	return m
}

// Reference advances the full model serially on the host and returns the
// final per-cell populations — the ground truth for both distributed
// implementations.
func Reference(p Params) [][]float64 {
	m := newModel(p)
	cells := make([][]float64, p.Cells)
	for c := range cells {
		cells[c] = initialPopulation(p)
	}
	coeffs := make([]byte, p.cellCoeffBytes())
	for step := 0; step < p.Steps; step++ {
		src := m.advanceScalars(step)
		for c, n := range cells {
			m.buildCoeffs(c, coeffs)
			coagulateCell(p, n, coeffs, src[c])
		}
	}
	return cells
}

// validate checks a configuration against the paper's decomposition rule.
func (p Params) validate(nodes int) error {
	if p.Cells <= 0 || p.Bins <= 0 || p.Steps <= 0 {
		return fmt.Errorf("nanopowder: non-positive parameters %+v", p)
	}
	if nodes < 1 || p.Cells%nodes != 0 {
		return fmt.Errorf("nanopowder: node count %d must divide the %d cells (§V-D)", nodes, p.Cells)
	}
	return nil
}

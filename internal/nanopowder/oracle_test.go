package nanopowder

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// buildCoeffsCbrt is buildCoeffs as it was before the cube roots moved
// into a per-model table: one math.Cbrt per table element. It is the
// oracle for TestBuildCoeffsMatchesCbrtOracle.
func buildCoeffsCbrt(m *model, c int, out []byte) {
	p := m.p
	t := m.temp[c]
	kern0 := 1e-3 * math.Sqrt(t/3000)
	eff0 := 0.6 + 0.4*math.Exp(-t/3000)
	b := p.Bins
	for i := 0; i < b; i++ {
		si := float64(i + 1)
		ri := math.Cbrt(si)
		for j := 0; j < b; j++ {
			sj := float64(j + 1)
			rj := math.Cbrt(sj)
			sum := ri + rj
			k := kern0 * sum * sum * math.Sqrt(1/si+1/sj)
			e := eff0 / (1 + 0.01*math.Abs(si-sj))
			binary.LittleEndian.PutUint64(out[(i*b+j)*8:], math.Float64bits(k))
			binary.LittleEndian.PutUint64(out[(b*b+i*b+j)*8:], math.Float64bits(e))
		}
	}
}

// TestBuildCoeffsMatchesCbrtOracle requires byte-identical tables from the
// table-driven and the per-element kernel, over odd and even bin counts and
// every cell's temperature across several cooling steps.
func TestBuildCoeffsMatchesCbrtOracle(t *testing.T) {
	for _, bins := range []int{1, 3, 17, 96, 256} {
		p := Params{Cells: 5, Bins: bins, Steps: 1, SubSteps: 1}
		m := newModel(p)
		got := make([]byte, p.cellCoeffBytes())
		want := make([]byte, p.cellCoeffBytes())
		for step := 0; step < 3; step++ {
			m.advanceScalars(step)
			for c := 0; c < p.Cells; c++ {
				m.buildCoeffs(c, got)
				buildCoeffsCbrt(m, c, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("bins %d step %d cell %d: coefficient tables differ", bins, step, c)
				}
			}
		}
	}
}

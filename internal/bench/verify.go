package bench

import (
	"fmt"

	"repro/internal/himeno"
	"repro/internal/nanopowder"
	"repro/internal/sweep"
)

// Verification is a bitwise-verification grid: every distributed
// implementation of both applications at each listed node count, run with
// Verify set and compared element by element against the host-only
// reference. It is the evidence that the figures measure real computations.
type Verification struct {
	Himeno      himeno.Config // System, Size, Iters and Mode of every Himeno run
	HimenoNodes []int
	Powder      nanopowder.Config // System and Params of every nanopowder run
	PowderNodes []int
}

// Verdict is one verification: a distributed run against its reference.
type Verdict struct {
	Impl  string
	Nodes int
	Err   error  // the run failed
	Diff  string // where the result first differs; "" when bitwise equal
}

// OK reports a run that finished bitwise equal to its reference.
func (v Verdict) OK() bool { return v.Err == nil && v.Diff == "" }

// String renders the verdict as one table cell.
func (v Verdict) String() string {
	switch {
	case v.Err != nil:
		return "ERROR: " + v.Err.Error()
	case v.Diff != "":
		return "MISMATCH " + v.Diff
	}
	return "OK"
}

// runs expands the grid, implementation outer and node count inner.
func (v Verification) runs() (hr []himeno.Config, pr []nanopowder.Config) {
	for _, impl := range []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI, himeno.GPUAware, himeno.CLMPIOutOfOrder} {
		for _, nodes := range v.HimenoNodes {
			cfg := v.Himeno
			cfg.Impl, cfg.Nodes, cfg.Verify = impl, nodes, true
			hr = append(hr, cfg)
		}
	}
	for _, impl := range []nanopowder.Impl{nanopowder.Baseline, nanopowder.CLMPI} {
		for _, nodes := range v.PowderNodes {
			cfg := v.Powder
			cfg.Impl, cfg.Nodes, cfg.Verify = impl, nodes, true
			pr = append(pr, cfg)
		}
	}
	return hr, pr
}

// Check asks every run of the grid whether it can start.
func (v Verification) Check() error {
	hr, pr := v.runs()
	for _, cfg := range hr {
		if err := cfg.Check(); err != nil {
			return err
		}
	}
	for _, cfg := range pr {
		if err := cfg.Check(); err != nil {
			return err
		}
	}
	return nil
}

// Run runs every verification over the sweep pool and returns the verdicts
// in grid order, with the Himeno reference's residual. A failed run is a
// verdict, not an error.
func (v Verification) Run() (himenoVerdicts, powderVerdicts []Verdict, gosa float64) {
	hr, pr := v.runs()
	wantGrid, gosa := himeno.Reference(v.Himeno.Size, v.Himeno.Iters, v.Himeno.Mode)
	himenoVerdicts, _ = sweep.Map(len(hr), func(i int) (Verdict, error) {
		vd := Verdict{Impl: hr[i].Impl.String(), Nodes: hr[i].Nodes}
		res, err := himeno.Run(hr[i])
		vd.Err = err
		for c := 0; err == nil && c < len(wantGrid); c++ {
			if res.Grid[c] != wantGrid[c] {
				vd.Diff = fmt.Sprintf("at cell %d", c)
				break
			}
		}
		return vd, nil
	})
	wantCells := nanopowder.Reference(v.Powder.Params)
	powderVerdicts, _ = sweep.Map(len(pr), func(i int) (Verdict, error) {
		vd := Verdict{Impl: pr[i].Impl.String(), Nodes: pr[i].Nodes}
		res, err := nanopowder.Run(pr[i])
		vd.Err = err
		for c := 0; err == nil && vd.Diff == "" && c < len(wantCells); c++ {
			for k := range wantCells[c] {
				if res.Final[c][k] != wantCells[c][k] {
					vd.Diff = fmt.Sprintf("cell %d bin %d", c, k)
					break
				}
			}
		}
		return vd, nil
	})
	return himenoVerdicts, powderVerdicts, gosa
}

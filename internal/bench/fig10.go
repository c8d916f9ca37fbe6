package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/nanopowder"
	"repro/internal/sweep"
)

// Fig10Point is one (nodes, implementation) cell of Figure 10.
type Fig10Point struct {
	Nodes    int
	Impl     nanopowder.Impl
	StepTime time.Duration
	Speedup  float64 // vs the 1-node baseline step time
}

// Fig10Nodes returns the divisors of 40 the paper can run (§V-D).
func Fig10Nodes() []int { return []int{1, 2, 4, 5, 8, 10, 20, 40} }

// Fig10 measures the nanopowder step time for both implementations across
// the node sweep on RICC.
func Fig10(params nanopowder.Params) ([]Fig10Point, error) {
	return Fig10On(cluster.RICC(), params)
}

// Fig10Runs returns Figure 10's runs on sys, nodes outer and
// implementations inner; node counts beyond the system's size are dropped
// from the sweep.
func Fig10Runs(sys cluster.System, params nanopowder.Params) []nanopowder.Config {
	var runs []nanopowder.Config
	for _, n := range Fig10Nodes() {
		if sys.CheckNodes(n) == nil {
			for _, impl := range []nanopowder.Impl{nanopowder.Baseline, nanopowder.CLMPI} {
				runs = append(runs, nanopowder.Config{System: sys, Nodes: n, Impl: impl, Params: params})
			}
		}
	}
	return runs
}

// Fig10On is Fig10 on an arbitrary system, over Fig10Runs.
func Fig10On(sys cluster.System, params nanopowder.Params) ([]Fig10Point, error) {
	runs := Fig10Runs(sys, params)
	// The runs go over the sweep pool; indexed results keep the point order
	// identical to the serial loop.
	out, err := sweep.Map(len(runs), func(i int) (Fig10Point, error) {
		cfg := runs[i]
		res, err := nanopowder.Run(cfg)
		if err != nil {
			return Fig10Point{}, fmt.Errorf("fig10 n=%d %v: %w", cfg.Nodes, cfg.Impl, err)
		}
		return Fig10Point{Nodes: cfg.Nodes, Impl: cfg.Impl, StepTime: res.StepTime}, nil
	})
	if err != nil {
		return nil, err
	}
	// Speedup is relative to the 1-node baseline, which the grid guarantees
	// is present; a post-pass keeps the normalization off the hot path.
	var base1 time.Duration
	for _, pt := range out {
		if pt.Nodes == 1 && pt.Impl == nanopowder.Baseline {
			base1 = pt.StepTime
		}
	}
	for i := range out {
		out[i].Speedup = base1.Seconds() / out[i].StepTime.Seconds()
	}
	return out, nil
}

// Fig10Table renders the points.
func Fig10Table(points []Fig10Point) (headers []string, rows [][]string) {
	headers = []string{"nodes", "baseline ms/step", "clMPI ms/step", "clMPI gain", "clMPI speedup"}
	byNode := map[int]map[nanopowder.Impl]Fig10Point{}
	var nodes []int
	for _, pt := range points {
		if byNode[pt.Nodes] == nil {
			byNode[pt.Nodes] = map[nanopowder.Impl]Fig10Point{}
			nodes = append(nodes, pt.Nodes)
		}
		byNode[pt.Nodes][pt.Impl] = pt
	}
	for _, n := range nodes {
		m := byNode[n]
		b, c := m[nanopowder.Baseline], m[nanopowder.CLMPI]
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", b.StepTime.Seconds()*1e3),
			fmt.Sprintf("%.1f", c.StepTime.Seconds()*1e3),
			fmt.Sprintf("%.3f", b.StepTime.Seconds()/c.StepTime.Seconds()),
			fmt.Sprintf("%.2f", c.Speedup),
		})
	}
	return headers, rows
}

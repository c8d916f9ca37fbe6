package bench

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Fig9Point is one bar of Figure 9: one (nodes, implementation) cell.
type Fig9Point struct {
	Nodes  int
	Impl   himeno.Impl
	GFLOPS float64
	// Ratio is computation time / communication time of the *serial*
	// implementation at this node count (the annotation of Fig. 9a);
	// populated on Serial points, 0 elsewhere. Infinite (no communication)
	// is reported as -1.
	Ratio float64
}

// Fig9Nodes returns the node-count sweep for a system and problem size:
// 1–4 on Cichlid, powers of two to 64 on RICC, without the counts the size
// cannot split (above size.MaxNodes()).
func Fig9Nodes(sys cluster.System, size himeno.Size) []int {
	all := []int{1, 2, 4, 8, 16, 32, 64}
	if sys.MaxNodes <= 4 {
		all = all[:3]
	}
	return slices.DeleteFunc(all, func(n int) bool { return n > size.MaxNodes() })
}

// Fig9 measures the Himeno sustained performance of the paper's three
// implementations across the node sweep.
func Fig9(sys cluster.System, size himeno.Size, iters int) ([]Fig9Point, error) {
	return Fig9With(sys, size, iters, []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI})
}

// Fig9With is Fig9 over an arbitrary implementation set (e.g. including the
// §II GPU-aware comparison and the out-of-order variant).
func Fig9With(sys cluster.System, size himeno.Size, iters int, impls []himeno.Impl) ([]Fig9Point, error) {
	return Fig9Sweep(sys, size, iters, impls, Fig9Nodes(sys, size))
}

// Fig9Sweep is the fully parameterized form: arbitrary implementations and
// node counts. Node counts that the size cannot accommodate (fewer than two
// interior planes per rank) are an error, as in himeno.Run.
func Fig9Sweep(sys cluster.System, size himeno.Size, iters int, impls []himeno.Impl, nodeCounts []int) ([]Fig9Point, error) {
	// Every (nodes, impl) cell is an independent engine: fan the flat grid
	// out over the sweep pool. Results come back indexed, so the point order
	// (nodes outer, impls inner) matches the serial loop exactly, and the
	// reported error is the one the serial loop would have hit first.
	return sweep.Map(len(nodeCounts)*len(impls), func(i int) (Fig9Point, error) {
		nodes, impl := nodeCounts[i/len(impls)], impls[i%len(impls)]
		res, err := himeno.Run(himeno.Config{
			System: sys, Nodes: nodes, Size: size, Iters: iters,
			Impl: impl, Mode: himeno.OfficialInit,
		})
		if err != nil {
			return Fig9Point{}, fmt.Errorf("fig9 %s n=%d %v: %w", sys.Name, nodes, impl, err)
		}
		pt := Fig9Point{Nodes: nodes, Impl: impl, GFLOPS: res.GFLOPS}
		if impl == himeno.Serial {
			if res.CommTime > 0 {
				pt.Ratio = res.CompTime.Seconds() / res.CommTime.Seconds()
			} else {
				pt.Ratio = -1
			}
		}
		return pt, nil
	})
}

// Fig9Table renders the points as the figure's table form. Columns adapt to
// whichever implementations appear in the points (preserving first-seen
// order); the clMPI/hand-opt gain and the serial comp/comm ratio columns
// are included when their inputs are present.
func Fig9Table(points []Fig9Point) (headers []string, rows [][]string) {
	byNode := map[int]map[himeno.Impl]Fig9Point{}
	var nodes []int
	var impls []himeno.Impl
	seen := map[himeno.Impl]bool{}
	for _, pt := range points {
		if byNode[pt.Nodes] == nil {
			byNode[pt.Nodes] = map[himeno.Impl]Fig9Point{}
			nodes = append(nodes, pt.Nodes)
		}
		byNode[pt.Nodes][pt.Impl] = pt
		if !seen[pt.Impl] {
			seen[pt.Impl] = true
			impls = append(impls, pt.Impl)
		}
	}
	headers = []string{"nodes"}
	for _, im := range impls {
		headers = append(headers, im.String()+" GF")
	}
	withGain := seen[himeno.CLMPI] && seen[himeno.HandOpt]
	if withGain {
		headers = append(headers, "clMPI/hand")
	}
	withRatio := seen[himeno.Serial]
	if withRatio {
		headers = append(headers, "comp/comm (serial)")
	}
	for _, n := range nodes {
		m := byNode[n]
		row := []string{fmt.Sprintf("%d", n)}
		for _, im := range impls {
			row = append(row, fmt.Sprintf("%.2f", m[im].GFLOPS))
		}
		if withGain {
			row = append(row, fmt.Sprintf("%.3f", m[himeno.CLMPI].GFLOPS/m[himeno.HandOpt].GFLOPS))
		}
		if withRatio {
			if r := m[himeno.Serial].Ratio; r >= 0 {
				row = append(row, fmt.Sprintf("%.2f", r))
			} else {
				row = append(row, "∞")
			}
		}
		rows = append(rows, row)
	}
	return headers, rows
}

// Fig4 reproduces the paper's timeline diagrams: a two-node Himeno run of
// the given implementation on Cichlid, traced and rendered as ASCII Gantt
// lanes.
func Fig4(impl himeno.Impl, size himeno.Size, iters int) (string, error) {
	_, out, err := Fig4Traced(impl, size, iters)
	return out, err
}

// Fig4Traced is Fig4 returning the tracer as well, so callers can export
// the same run as Chrome trace_event JSON or read its bus's Metrics.
func Fig4Traced(impl himeno.Impl, size himeno.Size, iters int) (*trace.Tracer, string, error) {
	return Fig4TracedOn(cluster.Cichlid(), impl, size, iters)
}

// Fig4TracedOn is Fig4Traced on an arbitrary system.
func Fig4TracedOn(sys cluster.System, impl himeno.Impl, size himeno.Size, iters int) (*trace.Tracer, string, error) {
	trc, _, err := TraceHimeno(sys, impl, size, 2, iters)
	if err != nil {
		return nil, "", err
	}
	return trc, trc.Render(100) + "\n" + trc.Utilization(), nil
}

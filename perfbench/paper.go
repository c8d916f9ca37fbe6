package main

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/nanopowder"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// paperWorkload regenerates the figure sections of clmpi-repro -quick in
// process: Fig. 8 on Cichlid and RICC, Fig. 9a/9b, Fig. 10, and the bitwise
// verification runs. The seed is unused: the paper's inputs are fixed.
//
// A pass's set-up resolves the two systems and computes the host reference
// results the verification compares against. Phase 1 is the transfer
// benchmark (Fig. 8); phase 2 is the application runs (Figs. 9 and 10 and
// the verification).
//
// Every call into a layer entry point runs under a pprof label naming it,
// so the CPU profile of a traced pass gives each entry point's CPU time;
// the pass counts the calls from the figures' grid sizes.
type paperWorkload struct {
	himenoIters int
	fig9        map[string]fig9Grid
	fig10       nanopowder.Params

	verifySize  himeno.Size
	verifyIters int
	verifyNP    nanopowder.Params

	// Over the traced passes: calls per labelled entry point, the wall
	// time of the figure and verification sweeps, and that of the set-up's
	// himeno.Reference calls (too short for the profile's 10 ms samples).
	calls                    map[string]int
	sweepWall, referenceWall time.Duration
	references               int
}

// fig9Grid is one panel of Fig. 9: the Himeno grid size and node counts.
type fig9Grid struct {
	size  himeno.Size
	nodes []int
}

// The call labels of the paper workload, which double as the prefixes of
// their per-layer metrics.
const (
	callP2P        = "clmpi.p2p"
	callHimeno     = "himeno.run"
	callNanopowder = "nanopowder.run"
)

// sweepCalls are the entry points the figure sweeps' cells call.
var sweepCalls = []string{callP2P, callHimeno, callNanopowder}

func newPaper(smoke bool) *paperWorkload {
	w := &paperWorkload{
		himenoIters: 3,
		// Fig. 9a runs the paper's M grid: the clMPI gain over the
		// hand-optimized code only takes its published size there (on the
		// S grid communication dominates and the gain is ~7x). Fig. 9b
		// runs clmpi-repro -quick's S grid, which feeds up to 32 ranks.
		fig9: map[string]fig9Grid{
			"cichlid": {himeno.SizeM, []int{1, 2, 4}},
			"ricc":    {himeno.SizeS, []int{1, 2, 4, 8, 16, 32}},
		},
		fig10:      nanopowder.Params{Cells: 40, Bins: 96, Steps: 2, SubSteps: 120},
		verifySize: himeno.SizeXS, verifyIters: 3,
		verifyNP: nanopowder.Params{Cells: 8, Bins: 96, Steps: 2, SubSteps: 50},
		calls:    map[string]int{},
	}
	if smoke {
		w.himenoIters = 2
		w.fig9["ricc"] = fig9Grid{himeno.SizeS, []int{1, 2, 4}}
		w.fig10 = nanopowder.Params{Cells: 40, Bins: 48, Steps: 1, SubSteps: 20}
		w.verifyIters = 2
		w.verifyNP.SubSteps = 10
	}
	return w
}

func (w *paperWorkload) seeded() bool { return false }

var paperSystems = []string{"cichlid", "ricc"}

// labelled runs fn with the goroutine labelled as running call.
func labelled(call string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels(callLabel, call), func(context.Context) { fn() })
}

func (w *paperWorkload) pass(traced bool) (passResult, error) {
	pr := passResult{parts: map[string]float64{}, model: map[string]float64{}}
	calls := map[string]int{}
	var vt strings.Builder
	t0 := time.Now()

	systems := map[string]cluster.System{}
	for _, name := range paperSystems {
		sys, err := cluster.Resolve(name)
		if err != nil {
			return pr, err
		}
		systems[name] = sys
	}
	tRef := time.Now()
	refGrid, _ := himeno.Reference(w.verifySize, w.verifyIters, himeno.ScrambledInit)
	refWall := time.Since(tRef)
	refCells := nanopowder.Reference(w.verifyNP)
	pr.setup = time.Since(t0)

	// Phase 1: transfers.
	t1 := time.Now()
	fig8 := map[string][][]string{}
	for _, name := range paperSystems {
		var rows [][]string
		var err error
		labelled(callP2P, func() { _, rows, err = bench.Fig8(systems[name]) })
		if err != nil {
			return pr, err
		}
		calls[callP2P] += len(rows) * len(bench.Fig8Impls())
		fig8[name] = rows
		for _, r := range rows {
			fmt.Fprintf(&vt, "fig8 %s %s\n", name, strings.Join(r, " "))
		}
	}
	// Phase 2: applications.
	t2 := time.Now()
	pr.phase1 = t2.Sub(t1)
	fig9 := map[string][]bench.Fig9Point{}
	for _, name := range paperSystems {
		grid := w.fig9[name]
		var pts []bench.Fig9Point
		var err error
		labelled(callHimeno, func() {
			pts, err = bench.Fig9Sweep(systems[name], grid.size, w.himenoIters, fig9Impls, grid.nodes)
		})
		if err != nil {
			return pr, err
		}
		calls[callHimeno] += len(pts)
		fig9[name] = pts
		for _, p := range pts {
			fmt.Fprintf(&vt, "fig9 %s %d %v %x\n", name, p.Nodes, p.Impl, math.Float64bits(p.GFLOPS))
		}
	}
	t3 := time.Now()
	var fig10 []bench.Fig10Point
	var err error
	labelled(callNanopowder, func() { fig10, err = bench.Fig10(w.fig10) })
	if err != nil {
		return pr, err
	}
	calls[callNanopowder] += len(fig10)
	for _, p := range fig10 {
		fmt.Fprintf(&vt, "fig10 %d %v %d\n", p.Nodes, p.Impl, p.StepTime)
	}
	t4 := time.Now()
	pr.parts["paper.fig8_s"] = t2.Sub(t1).Seconds()
	pr.parts["paper.fig9_s"] = t3.Sub(t2).Seconds()
	pr.parts["paper.fig10_s"] = t4.Sub(t3).Seconds()

	// Bitwise verification against the host references.
	ok, err := w.verify(refGrid, refCells, calls)
	if err != nil {
		return pr, err
	}
	pr.phase2 = time.Since(t2)
	pr.parts["paper.verify_s"] = time.Since(t4).Seconds()
	for i, good := range ok {
		fmt.Fprintf(&vt, "verify %d %v\n", i, good)
		pr.check(good, "verification run %d differs from the host reference", i)
	}
	for _, c := range sweepCalls {
		pr.attempted += calls[c] // every simulation cell is an operation
	}
	if traced {
		for c, n := range calls {
			w.calls[c] += n
		}
		w.sweepWall += pr.phase1 + pr.phase2
		w.referenceWall += refWall
		w.references++
	}

	// The paper's headline shapes.
	gain := fig9Gain(fig9["cichlid"], 4)
	pr.model["fig9a_gain_4n"] = gain
	pr.check(gain >= 1.10 && gain <= 1.20, "Fig. 9a clMPI/hand-opt at 4 nodes = %.4f, want [1.10, 1.20]", gain)
	minRatio := math.Inf(1)
	for _, r := range fig8["ricc"] {
		pinned, mapped := parseMBps(r[1]), parseMBps(r[2])
		pr.check(pinned > mapped, "Fig. 8b at %s bytes: pinned %s MB/s <= mapped %s MB/s", r[0], r[1], r[2])
		minRatio = math.Min(minRatio, pinned/mapped)
	}
	pr.model["fig8b_pinned_over_mapped_min"] = minRatio
	minGain := math.Inf(1)
	for n, g := range fig10Gains(fig10) {
		if n > 1 {
			pr.check(g > 1, "Fig. 10 clMPI gain at %d nodes = %.4f, want > 1", n, g)
			minGain = math.Min(minGain, g)
		}
	}
	pr.model["fig10_gain_min"] = minGain
	pr.digest = vtDigest(vt.String())
	return pr, nil
}

var fig9Impls = []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI}

// verify runs the distributed Himeno (five implementations) and nanopowder
// (two) at four nodes and compares each result bitwise with the host
// reference, as clmpi-repro's verification section does. It adds its calls
// to calls.
func (w *paperWorkload) verify(refGrid []float32, refCells [][]float64, calls map[string]int) ([]bool, error) {
	himenoImpls := []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI, himeno.GPUAware, himeno.CLMPIOutOfOrder}
	npImpls := []nanopowder.Impl{nanopowder.Baseline, nanopowder.CLMPI}
	calls[callHimeno] += len(himenoImpls)
	calls[callNanopowder] += len(npImpls)
	return sweep.Map(len(himenoImpls)+len(npImpls), func(i int) (good bool, err error) {
		if i < len(himenoImpls) {
			var res *himeno.Result
			labelled(callHimeno, func() {
				res, err = himeno.Run(himeno.Config{
					System: cluster.Cichlid(), Nodes: 4, Size: w.verifySize, Iters: w.verifyIters,
					Impl: himenoImpls[i], Mode: himeno.ScrambledInit, Verify: true,
				})
			})
			if err != nil {
				return false, err
			}
			return slices.Equal(res.Grid, refGrid), nil
		}
		var res *nanopowder.Result
		labelled(callNanopowder, func() {
			res, err = nanopowder.Run(nanopowder.Config{
				System: cluster.RICC(), Nodes: 4, Impl: npImpls[i-len(himenoImpls)], Params: w.verifyNP, Verify: true,
			})
		})
		if err != nil {
			return false, err
		}
		return slices.EqualFunc(res.Final, refCells, slices.Equal[[]float64]), nil
	})
}

// fig9Gain is clMPI over hand-optimized GFLOPS at the given node count.
func fig9Gain(pts []bench.Fig9Point, nodes int) float64 {
	var clmpi, hand float64
	for _, p := range pts {
		if p.Nodes != nodes {
			continue
		}
		switch p.Impl {
		case himeno.CLMPI:
			clmpi = p.GFLOPS
		case himeno.HandOpt:
			hand = p.GFLOPS
		}
	}
	if hand == 0 {
		return 0
	}
	return clmpi / hand
}

// fig10Gains maps each node count to baseline over clMPI step time.
func fig10Gains(pts []bench.Fig10Point) map[int]float64 {
	base, clmpi := map[int]time.Duration{}, map[int]time.Duration{}
	for _, p := range pts {
		if p.Impl == nanopowder.CLMPI {
			clmpi[p.Nodes] = p.StepTime
		} else {
			base[p.Nodes] = p.StepTime
		}
	}
	out := map[int]float64{}
	for n, b := range base {
		if c := clmpi[n]; c > 0 {
			out[n] = b.Seconds() / c.Seconds()
		}
	}
	return out
}

func parseMBps(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// layerMetrics reports each labelled entry point's CPU time per call, the
// host reference's wall time per call, and the sweep pool's efficiency: the cells' CPU time over the sweeps' wall
// time times the pool width.
func (w *paperWorkload) layerMetrics(m map[string]float64, cpu *cpuShares) error {
	for call, n := range w.calls {
		m[call+"_ms"] = float64(cpu.callNanos[call]) / 1e6 / float64(n)
		m[call+"_calls"] = float64(n)
	}
	if w.sweepWall > 0 {
		var cells int64
		for _, c := range sweepCalls {
			cells += cpu.callNanos[c]
		}
		m["sweep.efficiency"] = float64(cells) / 1e9 / (w.sweepWall.Seconds() * float64(fixedWorkers))
	}
	if w.references > 0 {
		m["himeno.reference_ms"] = w.referenceWall.Seconds() * 1e3 / float64(w.references)
	}

	// One representative traced Himeno cell and one traced p2p cell.
	trc, _, err := bench.TraceHimeno(cluster.Cichlid(), himeno.CLMPI, himeno.SizeS, 2, w.himenoIters)
	if err != nil {
		return err
	}
	m["clmpi.overlap_ratio"], m["cluster.nic_util"] = bench.ObservedOverlap(trc)
	p2p := trace.New()
	im := bench.Fig8Impls()[2]
	if _, err := bench.MeasureP2PTraced(cluster.Cichlid(), im.St, im.Block, 4<<20, p2p); err != nil {
		return err
	}
	for _, b := range []*trace.Bus{trc.Bus(), p2p.Bus()} {
		for _, ev := range b.Events() {
			switch ev.Layer {
			case trace.LayerCL, trace.LayerMPI, trace.LayerXfer, trace.LayerCluster:
				m["trace."+ev.Layer+"_events"]++
			}
		}
	}
	return nil
}

// Command clmpi-himeno regenerates Figure 9 of the clMPI paper: the
// sustained performance of the Himeno benchmark under the serial,
// hand-optimized, and clMPI implementations across node counts, on either
// simulated system, annotated with the serial implementation's
// computation/communication ratio.
//
// With -trace and/or -metrics, the tool additionally runs one fully
// instrumented clMPI configuration (at -trace-nodes nodes) and exports its
// unified event stream — command queues, MPI protocol, link occupancy — as
// Chrome trace_event JSON and/or the metrics derived from it (link utilization,
// overlap per iteration, strategy selections).
//
// Usage:
//
//	clmpi-himeno -system cichlid -size M -iters 6
//	clmpi-himeno -system ricc
//	clmpi-himeno -system cichlid -size S -iters 2 -trace out.json -metrics
//	clmpi-himeno -system cichlid -size S -iters 2 -critpath -flame out.folded
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/himeno"
)

func main() {
	system := flag.String("system", "cichlid", "system to simulate: a preset name (cichlid, ricc, ricc-verbs, hopper) or a spec file path")
	sizeName := flag.String("size", "M", "Himeno size: XS, S, M or L")
	iters := flag.Int("iters", 6, "Jacobi iterations to time")
	all := flag.Bool("all", false, "include the GPU-aware MPI (§II) and out-of-order clMPI implementations")
	traceOut := flag.String("trace", "", "write a traced clMPI run as Chrome trace_event JSON to this file")
	metrics := flag.Bool("metrics", false, "print the traced clMPI run's metrics")
	traceNodes := flag.Int("trace-nodes", 2, "node count of the traced run (-trace/-metrics/-critpath/-flame)")
	critReport := flag.Bool("critpath", false, "print the traced run's critical-path analysis (attribution, what-if bounds, per-iteration overlap)")
	flame := flag.String("flame", "", "write the traced run's critical path as folded flamegraph stacks to this file")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = all host cores, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	// Every run is configured and checked before any work starts: a bad
	// flag exits 2.
	tool := cli.New("clmpi-himeno")
	sys, err := cluster.Resolve(*system)
	tool.BadFlag(err)
	size, err := himeno.SizeByName(*sizeName)
	tool.BadFlag(err)
	impls := []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI}
	if *all {
		impls = append(impls, himeno.GPUAware, himeno.CLMPIOutOfOrder)
	}
	nodeCounts := bench.Fig9Nodes(sys, size)
	for _, nodes := range nodeCounts {
		tool.BadFlag(himeno.Config{System: sys, Nodes: nodes, Size: size, Iters: *iters}.Check())
	}
	tool.BadFlag(himeno.Config{System: sys, Nodes: *traceNodes, Size: size, Iters: *iters, Impl: himeno.CLMPI}.Check())
	tool.Start(*parallel, *cpuprofile, *memprofile)
	defer tool.Stop()
	fmt.Printf("Figure 9(%s): Himeno %s sustained performance on %s (%d iterations)\n\n",
		cli.PanelLabel(sys.Name), size.Name, sys.Name, *iters)
	points, err := bench.Fig9Sweep(sys, size, *iters, impls, nodeCounts)
	tool.Check(err)
	headers, rows := bench.Fig9Table(points)
	fmt.Print(bench.FormatTable(headers, rows))

	traced := cli.TraceOutputs{Metrics: *metrics, Critpath: *critReport, Flame: *flame, Chrome: *traceOut}
	if !traced.Any() {
		return
	}
	trc, _, err := bench.TraceHimeno(sys, himeno.CLMPI, size, *traceNodes, *iters)
	if err != nil {
		tool.Check(fmt.Errorf("traced run: %w", err))
	}
	overlap, nicUtil := bench.ObservedOverlap(trc)
	fmt.Printf("\ntraced clMPI run: %d nodes, overlap ratio %.3f, peak NIC utilization %.1f%%\n",
		*traceNodes, overlap, 100*nicUtil)
	tool.Check(traced.Write(os.Stdout, trc.Bus()))
}

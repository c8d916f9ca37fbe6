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
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/profiling"
	"repro/internal/sweep"
	"repro/internal/trace/critpath"
)

// panelLabel maps the two paper systems onto their figure panel letters;
// any other system labels the panel with its lower-cased name.
func panelLabel(name string) string {
	switch strings.ToLower(name) {
	case "cichlid":
		return "a"
	case "ricc":
		return "b"
	}
	return strings.ToLower(name)
}

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
	sweep.SetWorkers(*parallel)
	stopProfiling, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-himeno: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiling()
	sys, err := cluster.Resolve(*system)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-himeno: %v\n", err)
		os.Exit(2)
	}
	size, err := himeno.SizeByName(*sizeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-himeno: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("Figure 9(%s): Himeno %s sustained performance on %s (%d iterations)\n\n",
		panelLabel(sys.Name), size.Name, sys.Name, *iters)
	impls := []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI}
	if *all {
		impls = append(impls, himeno.GPUAware, himeno.CLMPIOutOfOrder)
	}
	points, err := bench.Fig9With(sys, size, *iters, impls)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-himeno: %v\n", err)
		os.Exit(1)
	}
	headers, rows := bench.Fig9Table(points)
	fmt.Print(bench.FormatTable(headers, rows))

	if *traceOut == "" && !*metrics && !*critReport && *flame == "" {
		return
	}
	trc, _, err := bench.TraceHimeno(sys, himeno.CLMPI, size, *traceNodes, *iters)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-himeno: traced run: %v\n", err)
		os.Exit(1)
	}
	overlap, nicUtil := bench.ObservedOverlap(trc)
	fmt.Printf("\ntraced clMPI run: %d nodes, overlap ratio %.3f, peak NIC utilization %.1f%%\n",
		*traceNodes, overlap, 100*nicUtil)
	if *metrics {
		fmt.Printf("\n%s", trc.Bus().Metrics().Format())
	}
	if *critReport || *flame != "" {
		a := critpath.Analyze(trc.Bus())
		if *critReport {
			fmt.Printf("\n%s", a.Report())
		}
		if *flame != "" {
			if err := os.WriteFile(*flame, []byte(a.Folded()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "clmpi-himeno: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote folded stacks (render with flamegraph.pl or speedscope): %s\n", *flame)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clmpi-himeno: %v\n", err)
			os.Exit(1)
		}
		if err := trc.Bus().WriteChrome(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "clmpi-himeno: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace (load in chrome://tracing or Perfetto): %s\n", *traceOut)
	}
}

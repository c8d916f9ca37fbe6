// Command clmpi-trace regenerates Figure 4 of the clMPI paper: timeline
// diagrams of how the serial, hand-optimized, and clMPI Himeno
// implementations schedule kernels, PCIe copies, and inter-node
// communication on a two-node run. Lanes are command queues; the clMPI
// variant shows communication commands (S/R) overlapping kernels (K) with
// the host thread blocked in neither.
//
// Beyond the ASCII panels, the observability layer can export the clMPI
// panel's full event stream — command queues, MPI protocol phases, and
// link/NIC/PCIe occupancy — as Chrome trace_event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev), and print the metrics
// derived from it (link utilization, eager/rendezvous counts, overlap ratios).
//
// With -o dir/ the clMPI panel's run is additionally dumped as a complete
// profiling bundle: the Chrome trace, the native trace (re-analyzable with
// `clmpi-critpath -in`), the critical-path report, folded flamegraph
// stacks, and a gzipped pprof profile of virtual time.
//
// Usage:
//
//	clmpi-trace -size S -iters 2
//	clmpi-trace -size S -iters 2 -trace out.json -metrics
//	clmpi-trace -size S -iters 2 -o profile/
//	go tool pprof -top profile/profile.pb.gz
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
	system := flag.String("system", "cichlid", "system to simulate: a preset name or a spec file path")
	sizeName := flag.String("size", "S", "Himeno size: XS, S, M or L")
	iters := flag.Int("iters", 2, "iterations to trace")
	traceOut := flag.String("trace", "", "write the clMPI panel's events as Chrome trace_event JSON to this file")
	metrics := flag.Bool("metrics", false, "print each panel's metrics")
	outDir := flag.String("o", "", "write the clMPI panel's full profiling bundle (Chrome trace, native trace, critical-path report, folded stacks, pprof profile) into this directory")
	flag.Parse()
	// Every run is configured and checked before any work starts: a bad
	// flag exits 2.
	tool := cli.New("clmpi-trace")
	sys, err := cluster.Resolve(*system)
	tool.BadFlag(err)
	size, err := himeno.SizeByName(*sizeName)
	tool.BadFlag(err)
	// Every panel is a two-node run.
	tool.BadFlag(himeno.Config{System: sys, Nodes: 2, Size: size, Iters: *iters}.Check())
	for _, impl := range []struct {
		panel string
		impl  himeno.Impl
	}{
		{"(a) serialized", himeno.Serial},
		{"(b) hand-optimized (host-blocked overlap)", himeno.HandOpt},
		{"(c) clMPI (event-driven overlap)", himeno.CLMPI},
	} {
		trc, out, err := bench.Fig4TracedOn(sys, impl.impl, size, *iters)
		tool.Check(err)
		fmt.Printf("Figure 4%s — Himeno %s, 2 nodes on %s, %d iterations\n\n%s\n", impl.panel, size.Name, sys.Name, *iters, out)
		if *metrics {
			fmt.Printf("metrics %s\n%s\n", impl.panel, trc.Bus().Metrics().Format())
		}
		if impl.impl == himeno.CLMPI {
			tool.Check(cli.TraceOutputs{Chrome: *traceOut, Bundle: *outDir}.Write(os.Stdout, trc.Bus()))
		}
	}
}

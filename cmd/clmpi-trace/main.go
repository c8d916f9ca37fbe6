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
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/trace"
	"repro/internal/trace/critpath"
)

func main() {
	system := flag.String("system", "cichlid", "system to simulate: a preset name or a spec file path")
	sizeName := flag.String("size", "S", "Himeno size: XS, S, M or L")
	iters := flag.Int("iters", 2, "iterations to trace")
	traceOut := flag.String("trace", "", "write the clMPI panel's events as Chrome trace_event JSON to this file")
	metrics := flag.Bool("metrics", false, "print each panel's metrics")
	outDir := flag.String("o", "", "write the clMPI panel's full profiling bundle (Chrome trace, native trace, critical-path report, folded stacks, pprof profile) into this directory")
	flag.Parse()
	sys, err := cluster.Resolve(*system)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-trace: %v\n", err)
		os.Exit(2)
	}
	size, err := himeno.SizeByName(*sizeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-trace: %v\n", err)
		os.Exit(2)
	}
	for _, impl := range []struct {
		panel string
		impl  himeno.Impl
	}{
		{"(a) serialized", himeno.Serial},
		{"(b) hand-optimized (host-blocked overlap)", himeno.HandOpt},
		{"(c) clMPI (event-driven overlap)", himeno.CLMPI},
	} {
		trc, out, err := bench.Fig4TracedOn(sys, impl.impl, size, *iters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clmpi-trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("Figure 4%s — Himeno %s, 2 nodes on %s, %d iterations\n\n%s\n", impl.panel, size.Name, sys.Name, *iters, out)
		if *metrics {
			fmt.Printf("metrics %s\n%s\n", impl.panel, trc.Bus().Metrics().Format())
		}
		if *traceOut != "" && impl.impl == himeno.CLMPI {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clmpi-trace: %v\n", err)
				os.Exit(1)
			}
			if err := trc.Bus().WriteChrome(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "clmpi-trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote Chrome trace (load in chrome://tracing or Perfetto): %s\n", *traceOut)
		}
		if *outDir != "" && impl.impl == himeno.CLMPI {
			if err := writeBundle(*outDir, trc.Bus()); err != nil {
				fmt.Fprintf(os.Stderr, "clmpi-trace: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// writeBundle dumps one traced run as a self-contained profiling directory.
func writeBundle(dir string, b *trace.Bus) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	a := critpath.Analyze(b)
	writeTo := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := writeTo("trace.json", func(f *os.File) error { return b.WriteChrome(f) }); err != nil {
		return err
	}
	if err := writeTo("trace.native", func(f *os.File) error { return b.WriteNative(f) }); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "critpath.txt"), []byte(a.Report()), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "critpath.folded"), []byte(a.Folded()), 0o644); err != nil {
		return err
	}
	if err := writeTo("profile.pb.gz", func(f *os.File) error { return a.WriteProfile(f) }); err != nil {
		return err
	}
	fmt.Printf("wrote profiling bundle to %s: trace.json (chrome://tracing), trace.native (clmpi-critpath -in), critpath.txt, critpath.folded (flamegraph.pl), profile.pb.gz (go tool pprof)\n", dir)
	return nil
}

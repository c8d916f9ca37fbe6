// Command clmpi-critpath runs the critical-path engine on a traced
// simulation and exports the virtual-time profile: a human-readable report
// (per-class attribution, what-if speedup bounds, per-iteration overlap
// efficiency), folded stacks for flamegraph.pl / speedscope, and a gzipped
// profile.proto that `go tool pprof` opens directly.
//
// The input is either one of the named deterministic presets (-preset
// cichlid|ricc, the paper's two systems running the clMPI Himeno solver) or
// a saved native trace (-in, the format written by `clmpi-trace -o dir/`).
//
// Usage:
//
//	clmpi-critpath -preset cichlid
//	clmpi-critpath -preset ricc -folded ricc.folded -pprof ricc.pb.gz
//	clmpi-critpath -in out/trace.native -report report.txt
//	go tool pprof -top profile.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/trace"
	"repro/internal/trace/critpath"
)

func main() {
	preset := flag.String("preset", "cichlid", "deterministic preset to run: cichlid or ricc (ignored with -in)")
	in := flag.String("in", "", "analyze a saved native trace instead of running a preset")
	report := flag.String("report", "-", "write the human-readable report here ('-' = stdout, '' = skip)")
	folded := flag.String("folded", "", "write folded flamegraph stacks to this file")
	pprofOut := flag.String("pprof", "", "write a gzipped pprof profile.proto to this file")
	flag.Parse()

	tool := cli.New("clmpi-critpath")
	if *in == "" {
		tool.BadFlag(bench.CheckTracePreset(*preset))
	}
	bus, err := loadBus(*in, *preset)
	tool.Check(err)
	a := critpath.Analyze(bus)

	if *report == "-" {
		fmt.Print(a.Report())
	} else if *report != "" {
		tool.Check(os.WriteFile(*report, []byte(a.Report()), 0o644))
	}
	if *folded != "" {
		tool.Check(os.WriteFile(*folded, []byte(a.Folded()), 0o644))
	}
	if *pprofOut != "" {
		tool.Check(cli.CreateFile(*pprofOut, a.WriteProfile))
		fmt.Fprintf(os.Stderr, "wrote pprof profile (open with `go tool pprof -top %s`)\n", *pprofOut)
	}
}

func loadBus(in, preset string) (*trace.Bus, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadNative(f)
	}
	trc, err := bench.TracePreset(preset)
	if err != nil {
		return nil, err
	}
	return trc.Bus(), nil
}

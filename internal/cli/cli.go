// Package cli is the plumbing the cmd/clmpi-* tools share: their exit
// statuses and, for the figure tools, the panel label, the matching-scaling
// section and the writer of a traced run's outputs.
//
// Every tool exits 0 on success, 1 on a runtime failure, and 2 on a bad
// flag. A figure tool rejects a bad flag before profiling starts and before
// any byte reaches stdout: it builds its run configurations from its flags
// and passes each run package's own admission check (himeno.Config.Check,
// nanopowder.Config.Check, clmpi.CheckP2P, bench.CheckMatchScale,
// sweep.SetWorkers) to BadFlag. No tool restates a range of its own.
package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/trace/critpath"
)

// Tool is one command's exit plumbing. Its error lines read "<name>: err".
type Tool struct {
	name string
	stop func() // flushes the profiles Start began
}

// New returns the plumbing of the named command.
func New(name string) *Tool { return &Tool{name: name, stop: func() {}} }

// BadFlag exits 2 with one stderr line when err, a rejected flag, is non-nil.
func (t *Tool) BadFlag(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", t.name, err)
		os.Exit(2)
	}
}

// Check exits 1 with one stderr line when err, a runtime failure, is
// non-nil. Profiles begun by Start are flushed first.
func (t *Tool) Check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", t.name, err)
		t.stop()
		os.Exit(1)
	}
}

// Start sets the sweep pool width (a negative one is a bad flag) and begins
// the profiles named by the (possibly empty) paths; a tool defers Stop.
func (t *Tool) Start(parallel int, cpuprofile, memprofile string) {
	t.BadFlag(sweep.SetWorkers(parallel))
	stop, err := profiling.Start(cpuprofile, memprofile)
	t.Check(err)
	t.stop = stop
}

// Stop flushes the profiles Start began.
func (t *Tool) Stop() { t.stop() }

// PanelLabel maps the two paper systems onto their figure panel letters;
// any other system labels the panel with its lower-cased name.
func PanelLabel(system string) string {
	switch name := strings.ToLower(system); name {
	case "cichlid":
		return "a"
	case "ricc":
		return "b"
	default:
		return name
	}
}

// MatchScale runs the matching-scaling sweep and prints its table, then with
// obsReport and parts > 1 the host-time attribution of all points, pooled.
func MatchScale(sys cluster.System, counts []int, outstanding, wildPct, rounds, parts int, obsReport bool) error {
	var sm *obs.Sim
	if obsReport && parts > 1 {
		sm = obs.NewSim(obs.NewRegistry(), obs.NewRecorder(parts, 0))
		sm.DeadlockDump = os.Stderr
	}
	points, err := bench.MatchScalePartitionedObs(sys, counts, outstanding, wildPct, rounds, parts, sm)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable(bench.MatchScaleTable(points)))
	if sm != nil {
		fmt.Printf("\nHost-time attribution (all partitioned points pooled)\n\n")
		return sm.Report(os.Stdout)
	}
	return nil
}

// TraceOutputs names what to make of one traced run; zero fields are
// skipped.
type TraceOutputs struct {
	Metrics  bool   // print the metrics derived from the trace
	Critpath bool   // print the critical-path report
	Flame    string // write the critical path as folded stacks to this file
	Chrome   string // write the trace as Chrome trace_event JSON to this file
	Bundle   string // write the full profiling bundle into this directory
}

// Any reports whether o asks for anything, so a tool can skip the run.
func (o TraceOutputs) Any() bool { return o != TraceOutputs{} }

// Write prints the asked-for reports to w, each after a blank line, then
// writes the asked-for files, announcing each on one line of w.
func (o TraceOutputs) Write(w io.Writer, b *trace.Bus) error {
	if o.Metrics {
		fmt.Fprintf(w, "\n%s", b.Metrics().Format())
	}
	var a *critpath.Analysis
	if o.Critpath || o.Flame != "" || o.Bundle != "" {
		a = critpath.Analyze(b)
	}
	if o.Critpath {
		fmt.Fprintf(w, "\n%s", a.Report())
	}
	if o.Flame != "" {
		if err := os.WriteFile(o.Flame, []byte(a.Folded()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote folded stacks (render with flamegraph.pl or speedscope): %s\n", o.Flame)
	}
	if o.Chrome != "" {
		if err := CreateFile(o.Chrome, b.WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Chrome trace (load in chrome://tracing or Perfetto): %s\n", o.Chrome)
	}
	if o.Bundle != "" {
		if err := writeBundle(o.Bundle, b, a); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote profiling bundle to %s: trace.json (chrome://tracing), trace.native (clmpi-critpath -in), critpath.txt, critpath.folded (flamegraph.pl), profile.pb.gz (go tool pprof)\n", o.Bundle)
	}
	return nil
}

// writeBundle dumps one traced run, analyzed as a, as a self-contained
// profiling directory.
func writeBundle(dir string, b *trace.Bus, a *critpath.Analysis) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := func(name string) string { return filepath.Join(dir, name) }
	return errors.Join(
		CreateFile(path("trace.json"), b.WriteChrome),
		CreateFile(path("trace.native"), b.WriteNative),
		os.WriteFile(path("critpath.txt"), []byte(a.Report()), 0o644),
		os.WriteFile(path("critpath.folded"), []byte(a.Folded()), 0o644),
		CreateFile(path("profile.pb.gz"), a.WriteProfile))
}

// CreateFile creates path and fills it with write, reporting the first
// error of the create, the write, or the close.
func CreateFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

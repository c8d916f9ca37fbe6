// Command clmpi-benchdiff compares a `go test -bench` run against one of the
// repository's checked-in BENCH_*.json baselines and prints a benchstat-style
// regression note. Baselines carry a "diff" spec (bench regex, package,
// benchtime, trim), so CI loops over every baseline with the same generic
// invocation; -run regenerates the measurement from that spec instead of
// reading pre-captured output.
//
// Two thresholds with different jobs: -flag marks cells in the note (noisy
// single-shot numbers deserve eyeballs, not build failures), while
// -max-regress is the gate — any cell slower than that multiple of its
// baseline ns/op exits non-zero and fails the build.
//
// Usage:
//
//	go test -bench MPIMatching -run '^$' ./internal/mpi/ | clmpi-benchdiff -baseline BENCH_mpi.json
//	clmpi-benchdiff -baseline BENCH_serve.json -run -out bench-serve.txt -max-regress 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/bench"
)

func main() {
	baseline := flag.String("baseline", "BENCH_mpi.json", "checked-in baseline JSON to compare against")
	benchFile := flag.String("bench", "-", "go test -bench output file ('-' = stdin); ignored with -run")
	run := flag.Bool("run", false, "regenerate the measurement with `go test` per the baseline's diff spec")
	out := flag.String("out", "", "with -run, also write the raw go test output to this file")
	trim := flag.String("trim", "", "prefix removed from measured names before grid lookup (default: the baseline's diff.trim)")
	flagPct := flag.Float64("flag", 50, "mark cells that slowed down by more than this percentage (0 disables)")
	maxRegress := flag.Float64("max-regress", 0, "exit non-zero when any cell's ns/op exceeds this multiple of its baseline (e.g. 2 = fail on a >2x regression; 0 disables)")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0, "exit non-zero when any cell's allocs/op exceeds this multiple of its baseline; allocation counts are deterministic, so a tight limit like 1.1 is safe (0 disables)")
	maxBytesRegress := flag.Float64("max-bytes-regress", 0, "exit non-zero when any cell's B/op exceeds this multiple of its baseline; heap bytes are deterministic like allocation counts, and this catches same-count-but-bigger allocations (0 disables)")
	gate := flag.Bool("gate", false, "exit non-zero when any cell is marked by -flag")
	pairPrefix := flag.String("pair-prefix", "", "compare every measured cell named PREFIX+X against cell X of the same run (baseline-free: same-run pairing cancels host speed, so tight bounds are meaningful)")
	maxPairRegress := flag.Float64("max-pair-regress", 0, "with -pair-prefix, exit non-zero when a prefixed cell's ns/op exceeds this multiple of its twin (e.g. 1.03 = fail when the prefixed variant is >3% slower; 0 disables)")
	maxPairAllocs := flag.Int64("max-pair-allocs", -1, "with -pair-prefix, exit non-zero when a prefixed cell makes more than this many additional allocs/op over its twin (0 demands parity; negative disables)")
	flag.Parse()

	base, err := loadBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	if *trim == "" && base.Diff != nil {
		*trim = base.Diff.Trim
	}

	var text string
	if *run {
		text, err = runBench(base, *baseline, *out)
	} else {
		text, err = readBench(*benchFile)
	}
	if err != nil {
		fatal(err)
	}
	if *run && base.Host != nil {
		cur := bench.BenchHost{CPU: bench.BenchCPU(text), Cores: runtime.NumCPU(), Go: runtime.Version()}
		if diff := bench.HostMismatch(*base.Host, cur); len(diff) > 0 {
			fmt.Fprintf(os.Stderr, "clmpi-benchdiff: warning: this host differs from %s's in %s; absolute ns/op compares across hosts\n",
				*baseline, strings.Join(diff, ", "))
		}
	}
	cells := bench.ParseGoBench(text)
	if len(cells) == 0 {
		fatal(fmt.Errorf("no benchmark lines in input"))
	}
	deltas, unmatched, missing := bench.DiffBench(base, cells, *trim)
	note, flagged := bench.FormatBenchDiff(deltas, unmatched, missing, *flagPct)
	fmt.Printf("benchdiff vs %s (base commit %s):\n%s", *baseline, base.CommitBase, note)

	exceeded := bench.RegressionsBeyond(deltas, *maxRegress)
	for _, d := range exceeded {
		fmt.Printf("GATE: %s is %.1fx its baseline (%.0f -> %.0f ns/op), over the %.1fx limit\n",
			d.Name, d.Current/d.Base, d.Base, d.Current, *maxRegress)
	}
	allocExceeded := bench.AllocRegressionsBeyond(deltas, *maxAllocRegress)
	for _, d := range allocExceeded {
		fmt.Printf("GATE: %s allocates %.2fx its baseline (%d -> %d allocs/op), over the %.2fx limit\n",
			d.Name, float64(d.CurrentAllocs)/float64(d.BaseAllocs), d.BaseAllocs, d.CurrentAllocs, *maxAllocRegress)
	}
	bytesExceeded := bench.BytesRegressionsBeyond(deltas, *maxBytesRegress)
	for _, d := range bytesExceeded {
		fmt.Printf("GATE: %s allocates %.2fx its baseline bytes (%d -> %d B/op), over the %.2fx limit\n",
			d.Name, float64(d.CurrentBytes)/float64(d.BaseBytes), d.BaseBytes, d.CurrentBytes, *maxBytesRegress)
	}
	if flagged > 0 {
		fmt.Printf("%d cell(s) regressed more than %.0f%%\n", flagged, *flagPct)
	}
	var pairViolations []string
	if *pairPrefix != "" {
		// Pair on trimmed names: cells come out of ParseGoBench keyed
		// "BenchmarkPDES/obs=on/...", but the prefix is expressed in the same
		// grid-name space the baselines use ("obs=on/...").
		paired := cells
		if *trim != "" {
			paired = make(map[string]bench.BenchCell, len(cells))
			for n, c := range cells {
				paired[strings.TrimPrefix(n, *trim)] = c
			}
		}
		pairs, missing := bench.PairDeltas(paired, *pairPrefix)
		if len(pairs) == 0 {
			fatal(fmt.Errorf("-pair-prefix %q matched no cell pairs", *pairPrefix))
		}
		for _, p := range pairs {
			fmt.Printf("pair %s vs %s: %.3fx ns/op (%.0f vs %.0f), %+d allocs/op\n",
				p.Name, p.Against, p.A.NsPerOp/p.B.NsPerOp, p.A.NsPerOp, p.B.NsPerOp,
				p.A.AllocsPerOp-p.B.AllocsPerOp)
		}
		for _, n := range missing {
			fmt.Printf("pair cell %s has no unprefixed twin in this run\n", n)
		}
		pairViolations = bench.PairViolations(pairs, *maxPairRegress, *maxPairAllocs)
		for _, v := range pairViolations {
			fmt.Println(v)
		}
	}
	if len(exceeded) > 0 || len(allocExceeded) > 0 || len(bytesExceeded) > 0 ||
		len(pairViolations) > 0 || (*gate && flagged > 0) {
		os.Exit(1)
	}
}

// runBench executes the baseline's diff spec and returns (and optionally
// tees) the go test output.
func runBench(base *bench.BenchBaseline, path, out string) (string, error) {
	spec := base.Diff
	if spec == nil {
		return "", fmt.Errorf("%s has no diff spec; pass the bench output explicitly", path)
	}
	args := []string{"test", "-run", "^$", "-bench", spec.BenchRegex, "-benchmem"}
	if spec.BenchTime != "" {
		args = append(args, "-benchtime", spec.BenchTime)
	}
	args = append(args, spec.Package)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if out != "" {
		if werr := os.WriteFile(out, raw, 0o644); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return "", fmt.Errorf("go %v: %w\n%s", args, err, raw)
	}
	return string(raw), nil
}

// readBench loads pre-captured bench output from a file or stdin.
func readBench(path string) (string, error) {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	return string(raw), err
}

func loadBaseline(path string) (*bench.BenchBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return bench.LoadBenchBaseline(data)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "clmpi-benchdiff: %v\n", err)
	os.Exit(2)
}

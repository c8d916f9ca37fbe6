// Command perfbench measures the host cost of the clMPI simulator: how long
// it takes to regenerate the paper's figures, to simulate a world of
// thousands of ranks, and to answer sweep jobs over HTTP. Each workload runs
// in-process through the program's public entry points, checks that the
// outputs are correct, and prints its metrics as one JSON object on the last
// line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload paper|matchscale|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 every
// other pass runs under a CPU profile, and the metrics are the per-layer
// ones. README.md documents every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/sweep"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
// Each workload has a set-up step and two timed phases per pass; README.md
// lists what they are for each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"phase1_s", "s", "lower"},
	{"phase2_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"allocs", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// fixedWorkers is the host parallelism every workload uses — sweep pool,
// partition workers, serve pool and serve clients alike — so results from
// hosts with more cores stay comparable.
var fixedWorkers = min(2, runtime.NumCPU())

// passResult is what one measured pass of a workload reports.
type passResult struct {
	setup, phase1, phase2 time.Duration
	// parts are named host-time breakdowns of the pass in seconds (e.g.
	// paper.fig8_s), reported as per-layer metrics from untraced passes.
	parts map[string]float64
	// samples are per-operation latencies in ms, pooled across untraced
	// passes (e.g. serve.cold_ms).
	samples map[string][]float64
	// attempted counts the pass's checked operations; failed those whose
	// check failed, and problems says why.
	attempted, failed int
	problems          []string
	// digest fingerprints every virtual-time output of the pass; model
	// holds the headline virtual-time numbers. Both must repeat exactly.
	digest string
	model  map[string]float64
}

// check counts one checked operation, failed unless good.
func (pr *passResult) check(good bool, format string, args ...any) {
	pr.attempted++
	if !good {
		pr.failed++
		pr.problems = append(pr.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload.
type workload interface {
	// pass runs one measured pass. traced passes run under the CPU profiler
	// and may time calls into single layers, accumulating them for
	// layerMetrics.
	pass(traced bool) (passResult, error)
	// layerMetrics adds the workload's per-layer metrics: what its traced
	// passes recorded, their CPU profile, and one-off probes of single
	// layers.
	layerMetrics(m map[string]float64, cpu *cpuShares) error
	// seeded reports whether the virtual-time outputs depend on the seed.
	seeded() bool
}

// newWorkload builds a workload; smoke selects tiny sizes for tests.
func newWorkload(name string, seed int64, smoke bool) (workload, error) {
	switch name {
	case "paper":
		return newPaper(smoke), nil
	case "matchscale":
		return newMatchScale(seed, smoke), nil
	case "serve":
		return newServe(seed, smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, matchscale or serve)", name)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper, matchscale or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds; sets the number of passes")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, store: modelStore}
	res, summary, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	io.WriteString(stdout, summary)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// modelStore is where runs record each workload's virtual-time outputs, to
// check them against later runs of the same source.
const modelStore = ".bench_build/perfbench-model"

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool   // tiny problem sizes, for tests
	store    string // the virtual-time record's directory
}

// nominalPass is each workload's pass time on the recorded host (README.md).
// A run makes a fixed number of measured passes, --seconds / nominalPass,
// so that a faster commit does not get more tries at a fast pass.
var nominalPass = map[string]float64{"paper": 1.2, "matchscale": 3.0, "serve": 0.05}

// passCount is the number of measured passes of a run: at least one, and in
// a traced run at least one untraced and one traced.
func passCount(workload string, seconds float64, traced bool) int {
	n := max(1, int(math.Round(seconds/nominalPass[workload])))
	if traced {
		n = max(2, n)
	}
	return n
}

// measure runs the workload's passes and assembles the result and a
// human-readable summary.
func measure(cfg runConfig) (result, string, error) {
	sweep.SetWorkers(fixedWorkers)
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.smoke)
	if err != nil {
		return result{}, "", err
	}
	var sum strings.Builder
	host, err := fingerprint()
	if err != nil {
		return result{}, "", err
	}
	fmt.Fprintf(&sum, "# host %s\n", host.json())

	// Warm-up: one untimed pass fills the runtime's caches, pools and heap
	// before anything is timed.
	if _, err := w.pass(false); err != nil {
		return result{}, "", fmt.Errorf("warm-up pass: %w", err)
	}

	var (
		untraced, tracedPasses []passResult
		walls, tracedWalls     []float64
		allocs, allocMB        []float64
		attempted, failed      int
		digest                 string
		model                  map[string]float64
		shares                 = newCPUShares()
		rt                     rtTotals
	)
	passes := passCount(cfg.workload, cfg.seconds, cfg.traced)
	// A commit far slower than the nominal pass stops early, at four times
	// --seconds, so that a run's length stays bounded.
	deadline := time.Now().Add(time.Duration(4 * cfg.seconds * float64(time.Second)))
	for i := 0; i < passes; i++ {
		traced := cfg.traced && i%2 == 1
		var prof bytes.Buffer
		var ps *peakSampler
		// Each pass starts from a collected heap, as testing.B does, so
		// one pass's garbage does not bill the next.
		runtime.GC()
		before := readRuntime()
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return result{}, "", fmt.Errorf("cpu profile: %w", err)
			}
			ps = startPeakSampler()
		}
		t0 := time.Now()
		pr, err := w.pass(traced)
		wall := time.Since(t0)
		if traced {
			pprof.StopCPUProfile()
			ps.finish()
		}
		after := readRuntime()
		if err != nil {
			fmt.Fprintf(&sum, "# pass %d failed: %v\n", i, err)
			attempted++
			failed++
		} else {
			attempted += pr.attempted
			failed += pr.failed
			for _, p := range pr.problems {
				fmt.Fprintf(&sum, "# pass %d: %s\n", i, p)
			}
			// Every pass must reproduce the first pass's virtual time.
			attempted++
			if digest == "" {
				digest, model = pr.digest, pr.model
			} else if pr.digest != digest {
				fmt.Fprintf(&sum, "# pass %d: virtual-time digest %s differs from %s\n", i, pr.digest, digest)
				failed++
			}
		}
		if traced {
			samples, err := parseProfile(prof.Bytes())
			if err != nil {
				return result{}, "", err
			}
			shares.add(samples)
			rt.add(before, after, ps)
			tracedPasses = append(tracedPasses, pr)
			tracedWalls = append(tracedWalls, wall.Seconds())
		} else if err == nil {
			untraced = append(untraced, pr)
			walls = append(walls, wall.Seconds())
			allocs = append(allocs, delta(before, after, mAllocObjs))
			allocMB = append(allocMB, delta(before, after, mAllocBytes)/1e6)
		}
		if time.Now().After(deadline) && len(walls) > 0 && (!cfg.traced || len(tracedWalls) > 0) {
			fmt.Fprintf(&sum, "# stopped after %d of %d passes: past 4x --seconds\n", i+1, passes)
			break
		}
	}
	if len(walls) == 0 {
		return result{}, "", fmt.Errorf("no pass of %s succeeded", cfg.workload)
	}

	if digest != "" {
		attempted++
		key := cfg.workload
		if cfg.smoke {
			key += "-smoke"
		}
		if w.seeded() {
			key += fmt.Sprintf("-seed%d", cfg.seed)
		}
		key += "-" + host.Source
		if msg, err := checkStore(cfg.store, key, digest, model); err != nil {
			return result{}, "", err
		} else if msg != "" {
			fmt.Fprintf(&sum, "# %s\n", msg)
			failed++
		}
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	e2e := endToEndValues(untraced, walls, allocMB, allocs)
	fmt.Fprintf(&sum, "# %s seed=%d passes=%d (+%d traced) attempted=%d failed=%d digest=%s\n",
		cfg.workload, cfg.seed, len(untraced), len(tracedPasses), attempted, failed, digest)
	fmt.Fprintf(&sum, "# pass walls (s): untraced median %.4g %s traced %s\n", median(walls), fmtList(walls), fmtList(tracedWalls))
	layer := map[string]float64{}
	breakdown(untraced, layer)
	var names []string
	for name := range layer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sum, "#   %-24s %.6g %s\n", n, layer[n], unitOf(n))
	}
	if !cfg.traced {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
		return res, sum.String(), nil
	}

	if err := w.layerMetrics(layer, shares); err != nil {
		return result{}, "", err
	}
	for _, l := range layers {
		layer["cpu."+l] = shares.share(shares.layer[l])
	}
	for _, c := range rtClasses {
		layer["cpu."+c.name] = shares.share(shares.runtime[c.name])
	}
	layer["cpu.samples"] = float64(shares.total)
	rt.metrics(layer)
	for k, v := range model {
		layer["model."+k] = v
	}
	layer["model.vt_digest"] = digestNumber(digest)
	layer["bench.passes"] = float64(len(untraced) + len(tracedPasses))
	if m := median(walls); m > 0 {
		layer["bench.trace_overhead"] = median(tracedWalls) / m
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{layer[d.Name], d.Unit}
	}
	fmt.Fprintf(&sum, "# cpu samples=%d trace_overhead=%.4f\n", shares.total, layer["bench.trace_overhead"])
	return res, sum.String(), nil
}

// endToEndValues reduces the untraced passes to the end-to-end metrics.
// Times, set-up included, are the fastest pass: other tenants of a shared
// host only ever slow a pass down, by up to 2x for minutes at a time, so
// the fastest of a fixed number of passes is the steadiest estimate of the
// code's own cost (the `# pass walls` summary line keeps every pass and
// their median). The memory counts are medians.
func endToEndValues(passes []passResult, walls, allocMB, allocs []float64) map[string]float64 {
	var setup, p1, p2 []float64
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
		p1 = append(p1, p.phase1.Seconds())
		p2 = append(p2, p.phase2.Seconds())
	}
	return map[string]float64{
		"setup_s":     slices.Min(setup),
		"wall_s":      slices.Min(walls),
		"phase1_s":    slices.Min(p1),
		"phase2_s":    slices.Min(p2),
		"alloc_mb":    median(allocMB),
		"allocs":      median(allocs),
		"peak_rss_mb": peakRSSMB(),
	}
}

// breakdown reports the workloads' named pass breakdowns (medians over
// untraced passes) and their pooled latency samples: throughput over the
// pooled phase time, p50 and p99, and the sample count.
func breakdown(passes []passResult, m map[string]float64) {
	parts := map[string][]float64{}
	samples := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p.parts {
			parts[k] = append(parts[k], v)
		}
		for k, v := range p.samples {
			samples[k] = append(samples[k], v...)
		}
	}
	for k, v := range parts {
		m[k] = median(v)
	}
	for k, v := range samples {
		base := strings.TrimSuffix(k, "_ms")
		l := summarize(v)
		m[base+"_p50_ms"] = l.P50
		m[base+"_p99_ms"] = l.P99
		m[base+"_samples"] = float64(l.N)
	}
}

// unitOf finds a per-layer metric's unit.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// fmtList renders values compactly for the summary lines.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

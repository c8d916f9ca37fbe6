// Command clmpi-bw regenerates Figure 8 of the clMPI paper: the sustained
// point-to-point bandwidth between two remote devices for the pinned,
// mapped, and pipelined(N) data-transfer implementations, swept over
// message sizes, on either simulated system.
//
// With -trace and/or -metrics, the tool additionally runs one fully
// instrumented transfer (-strategy, -msg) and exports its unified event
// stream — command queues, MPI protocol phases, link/NIC/PCIe occupancy —
// as Chrome trace_event JSON and/or the metrics derived from it.
//
// Usage:
//
//	clmpi-bw -system cichlid
//	clmpi-bw -system ricc
//	clmpi-bw -system ricc -strategy pipelined -msg 33554432 -trace out.json -metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/trace/critpath"
)

func main() {
	system := flag.String("system", "ricc", "system to simulate: a preset name (cichlid, ricc, ricc-verbs, hopper) or a spec file path")
	traceOut := flag.String("trace", "", "write one traced transfer as Chrome trace_event JSON to this file")
	metrics := flag.Bool("metrics", false, "print the traced transfer's metrics")
	strategyName := flag.String("strategy", "pipelined", "strategy of the traced transfer: auto, pinned, mapped, pipelined, pipelined(N) or peer")
	msg := flag.Int64("msg", 4<<20, "message size in bytes of the traced transfer")
	critReport := flag.Bool("critpath", false, "print the traced transfer's critical-path analysis (attribution + what-if bounds)")
	flame := flag.String("flame", "", "write the traced transfer's critical path as folded flamegraph stacks to this file")
	ranks := flag.String("ranks", "", "also run the large-world matching scaling sweep at these comma-separated rank counts (e.g. 64,128,256,512)")
	outstanding := flag.Int("outstanding", 32, "outstanding sends and receives per rank in the -ranks sweep")
	wild := flag.Int("wild", 25, "percentage of wildcard receives in the -ranks sweep")
	parallelWorld := flag.Int("parallel-world", 0, "run each -ranks point on a partitioned engine with this many partitions and host workers (0 = the serial engine)")
	obsReport := flag.Bool("obs-report", false, "with -parallel-world, attribute each shard's host wall time to simulate/stall/advert/merge and print the report after the -ranks sweep")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = all host cores, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	// Every flag is checked before any work starts: a bad value exits 2.
	badFlag := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "clmpi-bw: %v\n", err)
			os.Exit(2)
		}
	}
	sys, err := cluster.Resolve(*system)
	badFlag(err)
	st, block, err := clmpi.ParseStrategy(*strategyName)
	badFlag(err)
	badFlag(checkFlags(*outstanding, *wild, *parallelWorld, *msg))
	var counts []int
	if *ranks != "" {
		counts, err = parseRanks(*ranks, *parallelWorld)
		badFlag(err)
	}
	sweep.SetWorkers(*parallel)
	stopProfiling, perr := profiling.Start(*cpuprofile, *memprofile)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "clmpi-bw: %v\n", perr)
		os.Exit(1)
	}
	defer stopProfiling()
	fmt.Printf("Figure 8(%s): point-to-point sustained bandwidth on %s\n\n",
		panelLabel(sys.Name), sys.Name)
	headers, rows, err := bench.Fig8(sys)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-bw: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(bench.FormatTable(headers, rows))

	if counts != nil {
		fmt.Printf("\nLarge-world matching scaling on %s (%d outstanding ops/rank, %d%% wildcards)\n\n",
			sys.Name, *outstanding, *wild)
		var sm *obs.Sim
		if *obsReport && *parallelWorld > 1 {
			sm = obs.NewSim(obs.NewRegistry(), obs.NewRecorder(*parallelWorld, 0))
			sm.DeadlockDump = os.Stderr
		}
		points, err := bench.MatchScalePartitionedObs(sys, counts, *outstanding, *wild, 2, *parallelWorld, sm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clmpi-bw: %v\n", err)
			os.Exit(1)
		}
		h, r := bench.MatchScaleTable(points)
		fmt.Print(bench.FormatTable(h, r))
		if sm != nil {
			fmt.Printf("\nHost-time attribution (all partitioned points pooled)\n\n")
			sm.Report(os.Stdout)
		}
	}

	if *traceOut == "" && !*metrics && !*critReport && *flame == "" {
		return
	}
	trc := trace.New()
	bw, err := bench.MeasureP2PTraced(sys, st, block, *msg, trc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-bw: traced transfer: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\ntraced transfer: %s, %d bytes, %.1f MB/s\n", st, *msg, bw/1e6)
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
				fmt.Fprintf(os.Stderr, "clmpi-bw: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote folded stacks (render with flamegraph.pl or speedscope): %s\n", *flame)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "clmpi-bw: %v\n", err)
			os.Exit(1)
		}
		if err := trc.Bus().WriteChrome(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "clmpi-bw: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace (load in chrome://tracing or Perfetto): %s\n", *traceOut)
	}
}

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

// checkFlags rejects the numeric flag values no run can use.
func checkFlags(outstanding, wild, parallelWorld int, msg int64) error {
	switch {
	case outstanding < 1:
		return fmt.Errorf("bad -outstanding %d (want >= 1)", outstanding)
	case wild < 0 || wild > 100:
		return fmt.Errorf("bad -wild %d (want a percentage in [0, 100])", wild)
	case parallelWorld < 0:
		return fmt.Errorf("bad -parallel-world %d (want >= 0)", parallelWorld)
	case msg < 1:
		return fmt.Errorf("bad -msg %d (want >= 1 byte)", msg)
	}
	return nil
}

// parseRanks parses a comma-separated list of world sizes, each of which
// must hold at least one rank per -parallel-world partition.
func parseRanks(s string, parallelWorld int) ([]int, error) {
	var counts []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad -ranks entry %q (want integers >= 2)", f)
		}
		if n < parallelWorld {
			return nil, fmt.Errorf("-ranks entry %d cannot span -parallel-world %d partitions", n, parallelWorld)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

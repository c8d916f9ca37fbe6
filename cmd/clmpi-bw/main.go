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
	"repro/internal/cli"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/trace"
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
	// Every run is configured and checked before any work starts: a bad
	// flag exits 2.
	tool := cli.New("clmpi-bw")
	sys, err := cluster.Resolve(*system)
	tool.BadFlag(err)
	st, block, err := clmpi.ParseStrategy(*strategyName)
	tool.BadFlag(err)
	tool.BadFlag(clmpi.CheckP2P(sys, *msg))
	var counts []int
	if *ranks != "" {
		for _, f := range strings.Split(*ranks, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				tool.BadFlag(fmt.Errorf("bad -ranks entry %q", f))
			}
			counts = append(counts, n)
		}
	}
	tool.BadFlag(bench.CheckMatchScale(sys, counts, *outstanding, *wild, 2, *parallelWorld))
	tool.Start(*parallel, *cpuprofile, *memprofile)
	defer tool.Stop()
	fmt.Printf("Figure 8(%s): point-to-point sustained bandwidth on %s\n\n",
		cli.PanelLabel(sys.Name), sys.Name)
	headers, rows, err := bench.Fig8(sys)
	tool.Check(err)
	fmt.Print(bench.FormatTable(headers, rows))

	if counts != nil {
		fmt.Printf("\nLarge-world matching scaling on %s (%d outstanding ops/rank, %d%% wildcards)\n\n",
			sys.Name, *outstanding, *wild)
		tool.Check(cli.MatchScale(sys, counts, *outstanding, *wild, 2, *parallelWorld, *obsReport))
	}

	traced := cli.TraceOutputs{Metrics: *metrics, Critpath: *critReport, Flame: *flame, Chrome: *traceOut}
	if !traced.Any() {
		return
	}
	trc := trace.New()
	bw, err := bench.MeasureP2PTraced(sys, st, block, *msg, trc)
	if err != nil {
		tool.Check(fmt.Errorf("traced transfer: %w", err))
	}
	fmt.Printf("\ntraced transfer: %s, %d bytes, %.1f MB/s\n", st, *msg, bw/1e6)
	tool.Check(traced.Write(os.Stdout, trc.Bus()))
}

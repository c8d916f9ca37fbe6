// Command clmpi-repro regenerates the entire evaluation of the clMPI paper
// in one run: Table I, Figures 4, 8(a), 8(b), 9(a), 9(b) and 10, followed
// by the end-to-end bitwise verification summary. It is the "reproduce
// everything" entry point; the per-figure tools (clmpi-bw, clmpi-himeno,
// clmpi-nanopowder, clmpi-trace, clmpi-sysinfo, clmpi-ablate, clmpi-verify)
// expose the same experiments individually with more knobs.
//
// Usage:
//
//	clmpi-repro               # full evaluation, ~1 minute of host time
//	clmpi-repro -quick        # smaller problem sizes, a few seconds
//	clmpi-repro -parallel 4   # cap the sweep worker pool at 4 host cores
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/nanopowder"
	"repro/internal/obs"
	"repro/internal/profiling"
	"repro/internal/sweep"
	"repro/internal/trace/critpath"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced problem sizes")
	systemsFlag := flag.String("systems", "cichlid,ricc", "comma-separated systems for the Figure 8/9 sweeps: preset names or spec file paths")
	ranks := flag.Int("ranks", 0, "extra world size for the large-world matching scaling section (0 = default grid only)")
	critReport := flag.Bool("critpath", false, "append a critical-path profile of a traced clMPI Himeno run (attribution, what-if bounds)")
	flame := flag.String("flame", "", "write that traced run's critical path as folded flamegraph stacks to this file")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = all host cores, 1 = serial)")
	parallelWorld := flag.Int("parallel-world", 0, "run the large-world matching scaling section on a partitioned engine with this many partitions and host workers per point (0 = the serial engine)")
	obsReport := flag.Bool("obs-report", false, "with -parallel-world, append a host-time attribution report (simulate/stall/advert/merge per shard) to the matching scaling section")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()
	// Every flag is checked before any work starts: a bad value exits 2.
	var sweepSystems []cluster.System
	for _, arg := range strings.Split(*systemsFlag, ",") {
		sys, err := cluster.Resolve(strings.TrimSpace(arg))
		badFlag(err)
		sweepSystems = append(sweepSystems, sys)
	}
	counts := []int{64, 128, 256, 512}
	if *quick {
		counts = []int{64, 128}
	}
	if *ranks != 0 {
		counts = append(counts, *ranks)
	}
	badFlag(checkScaling(*ranks, *parallelWorld, counts))
	sweep.SetWorkers(*parallel)
	stop, err := profiling.Start(*cpuprofile, *memprofile)
	check(err)
	stopProfiling = stop
	defer stop()

	himenoSize := himeno.SizeM
	himenoIters := 6
	params := nanopowder.DefaultParams()
	if *quick {
		himenoSize = himeno.SizeS
		himenoIters = 3
		params = nanopowder.Params{Cells: 40, Bins: 96, Steps: 2, SubSteps: 120}
	}

	section("Table I — system specifications")
	fmt.Print(bench.Table1())

	section("Figure 4 — scheduling timelines (Himeno, 2 Cichlid nodes)")
	panels := []struct {
		name string
		impl himeno.Impl
	}{{"(a) serialized", himeno.Serial}, {"(b) hand-optimized", himeno.HandOpt}, {"(c) clMPI", himeno.CLMPI}}
	// The three panels are independent traced runs: render them in
	// parallel, print them in panel order.
	rendered, err := sweep.Map(len(panels), func(i int) (string, error) {
		return bench.Fig4(panels[i].impl, himeno.SizeS, 2)
	})
	check(err)
	for i, panel := range panels {
		fmt.Printf("%s\n\n%s\n", panel.name, rendered[i])
	}

	for _, sys := range sweepSystems {
		section(fmt.Sprintf("Figure 8(%s) — p2p sustained bandwidth, %s",
			panelLabel(sys.Name), sys.Name))
		headers, rows, err := bench.Fig8(sys)
		check(err)
		fmt.Print(bench.FormatTable(headers, rows))
	}

	for _, sys := range sweepSystems {
		section(fmt.Sprintf("Figure 9(%s) — Himeno %s sustained performance, %s (%d iterations)",
			panelLabel(sys.Name), himenoSize.Name, sys.Name, himenoIters))
		points, err := bench.Fig9(sys, himenoSize, himenoIters)
		check(err)
		headers, rows := bench.Fig9Table(points)
		fmt.Print(bench.FormatTable(headers, rows))
	}

	section(fmt.Sprintf("Figure 10 — nanopowder growth simulation, RICC (%.0f MB coefficients/step)",
		float64(params.TotalCoeffBytes())/1e6))
	points, err := bench.Fig10(params)
	check(err)
	headers, rows := bench.Fig10Table(points)
	fmt.Print(bench.FormatTable(headers, rows))

	if *parallelWorld > 1 {
		section(fmt.Sprintf("Large-world matching scaling — dense wildcard exchange, RICC fabric, %v ranks, %d-way partitioned engine", counts, *parallelWorld))
	} else {
		section(fmt.Sprintf("Large-world matching scaling — dense wildcard exchange, RICC fabric, %v ranks", counts))
	}
	var sm *obs.Sim
	if *obsReport && *parallelWorld > 1 {
		sm = obs.NewSim(obs.NewRegistry(), obs.NewRecorder(*parallelWorld, 0))
		sm.DeadlockDump = os.Stderr
	}
	scale, err := bench.MatchScalePartitionedObs(cluster.RICC(), counts, 32, 25, 2, *parallelWorld, sm)
	check(err)
	headers, rows = bench.MatchScaleTable(scale)
	fmt.Print(bench.FormatTable(headers, rows))
	if sm != nil {
		// Deliberately inside this section: the spec gate's byte compare
		// filters the whole matching-scaling block (its host-ms column is
		// nondeterministic anyway), so the host-time report rides in the
		// already-excluded region.
		fmt.Printf("\nHost-time attribution (all partitioned points pooled)\n\n")
		sm.Report(os.Stdout)
	}

	if *critReport || *flame != "" {
		section("Critical-path profile — traced clMPI Himeno run (2 Cichlid nodes)")
		trc, _, err := bench.TraceHimeno(cluster.Cichlid(), himeno.CLMPI, himeno.SizeS, 2, himenoIters)
		check(err)
		a := critpath.Analyze(trc.Bus())
		if *critReport {
			fmt.Print(a.Report())
		}
		if *flame != "" {
			check(os.WriteFile(*flame, []byte(a.Folded()), 0o644))
			fmt.Printf("\nwrote folded stacks (render with flamegraph.pl or speedscope): %s\n", *flame)
		}
	}

	section("Verification — distributed implementations vs host references")
	verifySummary(himenoIters)
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

func section(title string) {
	fmt.Printf("\n================================================================\n%s\n================================================================\n\n", title)
}

// badFlag exits 2 with a one-line message if err is a rejected flag value.
func badFlag(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-repro: %v\n", err)
		os.Exit(2)
	}
}

// checkScaling rejects the matching-scaling flag values no run can use:
// every world size in counts must hold at least one rank per partition.
func checkScaling(ranks, parallelWorld int, counts []int) error {
	switch {
	case ranks < 0 || ranks == 1:
		return fmt.Errorf("bad -ranks %d (want 0 or >= 2)", ranks)
	case parallelWorld < 0:
		return fmt.Errorf("bad -parallel-world %d (want >= 0)", parallelWorld)
	}
	for _, n := range counts {
		if n < parallelWorld {
			return fmt.Errorf("a %d-rank world cannot span -parallel-world %d partitions", n, parallelWorld)
		}
	}
	return nil
}

// stopProfiling flushes any active profiles; check calls it before a fatal
// exit so partial profiles are still written.
var stopProfiling = func() {}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "clmpi-repro: %v\n", err)
		stopProfiling()
		os.Exit(1)
	}
}

// verifySummary is a compact version of clmpi-verify. Every verification run
// is an independent simulation, so they fan out over the sweep pool; output
// order stays fixed because results come back indexed.
func verifySummary(iters int) {
	wantGrid, _ := himeno.Reference(himeno.SizeXS, iters, himeno.ScrambledInit)
	himenoImpls := []himeno.Impl{himeno.Serial, himeno.HandOpt, himeno.CLMPI, himeno.GPUAware, himeno.CLMPIOutOfOrder}
	himenoOK, err := sweep.Map(len(himenoImpls), func(i int) (bool, error) {
		res, err := himeno.Run(himeno.Config{
			System: cluster.Cichlid(), Nodes: 4, Size: himeno.SizeXS, Iters: iters,
			Impl: himenoImpls[i], Mode: himeno.ScrambledInit, Verify: true,
		})
		if err != nil {
			return false, err
		}
		for i := range res.Grid {
			if res.Grid[i] != wantGrid[i] {
				return false, nil
			}
		}
		return true, nil
	})
	check(err)
	okAll := true
	for i, impl := range himenoImpls {
		okAll = okAll && himenoOK[i]
		fmt.Printf("Himeno %-16s 4 nodes: bitwise match = %v\n", impl.String(), himenoOK[i])
	}
	params := nanopowder.Params{Cells: 8, Bins: 96, Steps: 2, SubSteps: 50}
	wantCells := nanopowder.Reference(params)
	npImpls := []nanopowder.Impl{nanopowder.Baseline, nanopowder.CLMPI}
	npOK, err := sweep.Map(len(npImpls), func(i int) (bool, error) {
		res, err := nanopowder.Run(nanopowder.Config{
			System: cluster.RICC(), Nodes: 4, Impl: npImpls[i], Params: params, Verify: true,
		})
		if err != nil {
			return false, err
		}
		for c := range wantCells {
			for k := range wantCells[c] {
				if res.Final[c][k] != wantCells[c][k] {
					return false, nil
				}
			}
		}
		return true, nil
	})
	check(err)
	for i, impl := range npImpls {
		okAll = okAll && npOK[i]
		fmt.Printf("Nanopowder %-12s 4 nodes: bitwise match = %v\n", impl.String(), npOK[i])
	}
	if !okAll {
		fmt.Println("\nVERIFICATION FAILED")
		os.Exit(1)
	}
	fmt.Println("\nall verifications passed")
}

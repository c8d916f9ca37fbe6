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
	"repro/internal/cli"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/nanopowder"
	"repro/internal/sweep"
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
	// Every run is configured and checked before any work starts: a bad
	// flag exits 2.
	var sweepSystems []cluster.System
	for _, arg := range strings.Split(*systemsFlag, ",") {
		sys, err := cluster.Resolve(strings.TrimSpace(arg))
		tool.BadFlag(err)
		sweepSystems = append(sweepSystems, sys)
	}
	counts := []int{64, 128, 256, 512}
	himenoSize, himenoIters := himeno.SizeM, 6
	params := nanopowder.DefaultParams()
	if *quick {
		counts = []int{64, 128}
		himenoSize, himenoIters = himeno.SizeS, 3
		params = nanopowder.Params{Cells: 40, Bins: 96, Steps: 2, SubSteps: 120}
	}
	if *ranks != 0 {
		counts = append(counts, *ranks)
	}
	for _, sys := range sweepSystems {
		tool.BadFlag(clmpi.CheckP2P(sys, bench.Fig8Sizes()[0]))
		for _, nodes := range bench.Fig9Nodes(sys, himenoSize) {
			tool.BadFlag(himeno.Config{System: sys, Nodes: nodes, Size: himenoSize, Iters: himenoIters}.Check())
		}
	}
	tool.BadFlag(bench.CheckMatchScale(cluster.RICC(), counts, 32, 25, 2, *parallelWorld))
	verification := bench.Verification{
		Himeno:      himeno.Config{System: cluster.Cichlid(), Size: himeno.SizeXS, Iters: himenoIters, Mode: himeno.ScrambledInit},
		HimenoNodes: []int{4},
		Powder: nanopowder.Config{
			System: cluster.RICC(), Params: nanopowder.Params{Cells: 8, Bins: 96, Steps: 2, SubSteps: 50},
		},
		PowderNodes: []int{4},
	}
	tool.BadFlag(verification.Check())
	tool.Start(*parallel, *cpuprofile, *memprofile)
	defer tool.Stop()

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
	tool.Check(err)
	for i, panel := range panels {
		fmt.Printf("%s\n\n%s\n", panel.name, rendered[i])
	}

	for _, sys := range sweepSystems {
		section(fmt.Sprintf("Figure 8(%s) — p2p sustained bandwidth, %s",
			cli.PanelLabel(sys.Name), sys.Name))
		headers, rows, err := bench.Fig8(sys)
		tool.Check(err)
		fmt.Print(bench.FormatTable(headers, rows))
	}

	for _, sys := range sweepSystems {
		section(fmt.Sprintf("Figure 9(%s) — Himeno %s sustained performance, %s (%d iterations)",
			cli.PanelLabel(sys.Name), himenoSize.Name, sys.Name, himenoIters))
		points, err := bench.Fig9(sys, himenoSize, himenoIters)
		tool.Check(err)
		headers, rows := bench.Fig9Table(points)
		fmt.Print(bench.FormatTable(headers, rows))
	}

	section(fmt.Sprintf("Figure 10 — nanopowder growth simulation, RICC (%.0f MB coefficients/step)",
		float64(params.TotalCoeffBytes())/1e6))
	points, err := bench.Fig10(params)
	tool.Check(err)
	headers, rows := bench.Fig10Table(points)
	fmt.Print(bench.FormatTable(headers, rows))

	if *parallelWorld > 1 {
		section(fmt.Sprintf("Large-world matching scaling — dense wildcard exchange, RICC fabric, %v ranks, %d-way partitioned engine", counts, *parallelWorld))
	} else {
		section(fmt.Sprintf("Large-world matching scaling — dense wildcard exchange, RICC fabric, %v ranks", counts))
	}
	// The -obs-report attribution deliberately prints inside this section:
	// the spec gate's byte compare filters the whole matching-scaling block
	// (its host-ms column is nondeterministic anyway), so the host-time
	// report rides in the already-excluded region.
	tool.Check(cli.MatchScale(cluster.RICC(), counts, 32, 25, 2, *parallelWorld, *obsReport))

	if *critReport || *flame != "" {
		// The report opens the section, and the flame file's announcement
		// stands apart after a blank line.
		fmt.Print(banner("Critical-path profile — traced clMPI Himeno run (2 Cichlid nodes)"))
		trc, _, err := bench.TraceHimeno(cluster.Cichlid(), himeno.CLMPI, himeno.SizeS, 2, himenoIters)
		tool.Check(err)
		if !*critReport {
			fmt.Println()
		}
		tool.Check(cli.TraceOutputs{Critpath: *critReport}.Write(os.Stdout, trc.Bus()))
		if *flame != "" {
			fmt.Println()
			tool.Check(cli.TraceOutputs{Flame: *flame}.Write(os.Stdout, trc.Bus()))
		}
	}

	section("Verification — distributed implementations vs host references")
	himenoVerdicts, powderVerdicts, _ := verification.Run()
	okAll := true
	for _, v := range himenoVerdicts {
		tool.Check(v.Err)
		okAll = okAll && v.OK()
		fmt.Printf("Himeno %-16s %d nodes: bitwise match = %v\n", v.Impl, v.Nodes, v.OK())
	}
	for _, v := range powderVerdicts {
		tool.Check(v.Err)
		okAll = okAll && v.OK()
		fmt.Printf("Nanopowder %-12s %d nodes: bitwise match = %v\n", v.Impl, v.Nodes, v.OK())
	}
	if !okAll {
		fmt.Println("\nVERIFICATION FAILED")
		os.Exit(1)
	}
	fmt.Println("\nall verifications passed")
}

var tool = cli.New("clmpi-repro")

// banner is a section heading; section prints it followed by a blank line.
func banner(title string) string {
	return fmt.Sprintf("\n================================================================\n%s\n================================================================\n", title)
}

func section(title string) { fmt.Println(banner(title)) }

// Command clmpi-ablate runs the reproduction's ablation studies — the
// design decisions DESIGN.md calls out, isolated one at a time:
//
//   - strategy: the §V-B automatic selection against each fixed strategy
//     and against the measurement-based tuner (clmpi.Tune);
//   - ring: the pipelined staging ring depth (overlap ablation);
//   - gpuaware: the §II comparison — GPU-aware MPI transfers (optimized
//     staging, host-driven schedule) between the hand-optimized and clMPI
//     Himeno implementations;
//   - eager: the MPI eager/rendezvous threshold's latency effect;
//   - ipoib: the §V-A thread-safety tax — RICC's IPoIB fabric vs the
//     counterfactual native-verbs configuration.
//
// Usage:
//
//	clmpi-ablate            # all studies
//	clmpi-ablate -only ring
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	only := flag.String("only", "", "run a single study: strategy, ring, gpuaware or eager")
	system := flag.String("system", "", "run the strategy/ring/eager studies on this system (preset name or spec file path) instead of the paper defaults")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = all host cores, 1 = serial)")
	flag.Parse()
	// Every flag is checked before any work starts: a bad value exits 2.
	if *system != "" {
		sys, err := cluster.Resolve(*system)
		tool.BadFlag(err)
		// The studies it applies to are two-node transfers of up to 32 MiB.
		tool.BadFlag(clmpi.CheckP2P(sys, 32<<20))
		studySystem = &sys
	}
	studies := map[string]func(){
		"strategy": strategyStudy,
		"ring":     ringStudy,
		"gpuaware": gpuAwareStudy,
		"eager":    eagerStudy,
		"ipoib":    ipoibStudy,
	}
	fn, ok := studies[*only]
	if *only != "" && !ok {
		tool.BadFlag(fmt.Errorf("unknown study %q", *only))
	}
	tool.Start(*parallel, "", "")
	if ok {
		fn()
		return
	}
	for _, name := range []string{"strategy", "ring", "gpuaware", "eager", "ipoib"} {
		studies[name]()
		fmt.Println()
	}
}

var tool = cli.New("clmpi-ablate")

// studySystem, when non-nil, replaces the paper-default systems in the
// strategy, ring and eager studies. The gpuaware study stays on Cichlid
// (it reproduces a §II comparison tied to that machine) and ipoib stays a
// RICC-vs-RICCVerbs comparison by definition.
var studySystem *cluster.System

// studyOr returns the -system override if one was given, else the study's
// paper-default system.
func studyOr(def func() cluster.System) cluster.System {
	if studySystem != nil {
		return *studySystem
	}
	return def()
}

// ipoibStudy quantifies the thread-safety tax of §V-A: the paper ran Open
// MPI over IPoIB because MPI_THREAD_MULTIPLE was not safe over native
// verbs. RICCVerbs is the counterfactual fabric.
func ipoibStudy() {
	fmt.Println("Ablation: the IPoIB thread-safety tax (§V-A) — RICC vs counterfactual native verbs")
	fmt.Println()
	headers := []string{"fabric", "p2p 32MiB (pipelined) MB/s", "Himeno M 16 nodes clMPI GF"}
	var rows [][]string
	for _, sys := range []cluster.System{cluster.RICC(), cluster.RICCVerbs()} {
		bw, err := bench.MeasureP2P(sys, clmpi.Pipelined, 1<<20, 32<<20)
		tool.Check(err)
		res, err := himeno.Run(himeno.Config{
			System: sys, Nodes: 16, Size: himeno.SizeM, Iters: 4,
			Impl: himeno.CLMPI, Mode: himeno.OfficialInit,
		})
		tool.Check(err)
		rows = append(rows, []string{sys.NIC.Model, fmt.Sprintf("%.0f", bw/1e6), fmt.Sprintf("%.2f", res.GFLOPS)})
	}
	fmt.Print(bench.FormatTable(headers, rows))
}

func strategyStudy() {
	fmt.Println("Ablation: automatic strategy selection (§V-B) vs fixed strategies vs measured tuning")
	fmt.Println()
	headers := []string{"system", "msg", "auto", "pinned", "mapped", "pipelined", "peer", "tuned", "auto/best", "tuned/best"}
	var rows [][]string
	systems := []cluster.System{cluster.Cichlid(), cluster.RICC()}
	if studySystem != nil {
		systems = []cluster.System{*studySystem}
	}
	for _, sys := range systems {
		tunedOpts, err := clmpi.Tune(sys)
		tool.Check(err)
		// The (size, strategy) grid plus the tuned column is 18 independent
		// measurements per system: fan it out over the sweep pool and read
		// the indexed results back in table order.
		sizes := []int64{64 << 10, 1 << 20, 32 << 20}
		sts := []clmpi.Strategy{clmpi.Auto, clmpi.Pinned, clmpi.Mapped, clmpi.Pipelined, clmpi.Peer}
		cols := len(sts) + 1
		grid, err := sweep.Map(len(sizes)*cols, func(i int) (float64, error) {
			size, k := sizes[i/cols], i%cols
			if k == len(sts) {
				return clmpi.MeasureP2P(sys, tunedOpts, size, nil)
			}
			return bench.MeasureP2P(sys, sts[k], 0, size)
		})
		tool.Check(err)
		for si, size := range sizes {
			row := []string{sys.Name, fmt.Sprintf("%dKiB", size>>10)}
			vals := grid[si*cols : (si+1)*cols]
			best := 0.0
			for k := 1; k < len(sts); k++ { // fixed strategies only (not auto)
				if vals[k] > best {
					best = vals[k]
				}
			}
			tuned := vals[len(sts)]
			for _, v := range vals {
				row = append(row, fmt.Sprintf("%.0f", v/1e6))
			}
			row = append(row, fmt.Sprintf("%.2f", vals[0]/best), fmt.Sprintf("%.2f", tuned/best))
			rows = append(rows, row)
		}
	}
	fmt.Print(bench.FormatTable(headers, rows))
	fmt.Println("\n'tuned' is clmpi.Tune: measured per-size selection instead of the paper's static rule.")
}

func ringStudy() {
	fmt.Printf("Ablation: pipelined staging ring depth (32 MiB message, %s)\n", studyOr(cluster.RICC).Name)
	fmt.Println()
	headers := []string{"ring buffers", "MB/s"}
	var rows [][]string
	for _, depth := range []int{1, 2, 3, 4, 8} {
		bw, err := clmpi.MeasureP2P(studyOr(cluster.RICC), clmpi.Options{Strategy: clmpi.Pipelined, PipelineBlock: 1 << 20, RingBuffers: depth}, 32<<20, nil)
		tool.Check(err)
		rows = append(rows, []string{fmt.Sprintf("%d", depth), fmt.Sprintf("%.0f", bw/1e6)})
	}
	fmt.Print(bench.FormatTable(headers, rows))
	fmt.Println("\ndepth 1 removes overlap entirely; two buffers already saturate a two-hop pipeline.")
}

func gpuAwareStudy() {
	fmt.Println("Ablation: transfer selection vs scheduling (Himeno S, 4 Cichlid nodes)")
	fmt.Println()
	headers := []string{"implementation", "GFLOPS", "what it isolates"}
	notes := map[himeno.Impl]string{
		himeno.HandOpt:  "manual overlap, per-transfer pinned staging",
		himeno.GPUAware: "optimized transfers, host-driven schedule (§II)",
		himeno.CLMPI:    "optimized transfers + event-driven schedule",
	}
	var rows [][]string
	for _, impl := range []himeno.Impl{himeno.HandOpt, himeno.GPUAware, himeno.CLMPI} {
		res, err := himeno.Run(himeno.Config{
			System: cluster.Cichlid(), Nodes: 4, Size: himeno.SizeS, Iters: 4,
			Impl: impl, Mode: himeno.OfficialInit,
		})
		tool.Check(err)
		rows = append(rows, []string{impl.String(), fmt.Sprintf("%.2f", res.GFLOPS), notes[impl]})
	}
	fmt.Print(bench.FormatTable(headers, rows))
}

func eagerStudy() {
	fmt.Printf("Ablation: eager vs rendezvous latency (%s, host-to-host)\n", studyOr(cluster.RICC).Name)
	fmt.Println()
	headers := []string{"msg bytes", "protocol", "one-way latency"}
	var rows [][]string
	for _, size := range []int{1 << 10, mpi.EagerThreshold, mpi.EagerThreshold + 1, 1 << 20} {
		lat := measureLatency(size)
		proto := "eager"
		if size > mpi.EagerThreshold {
			proto = "rendezvous"
		}
		rows = append(rows, []string{fmt.Sprintf("%d", size), proto, lat.String()})
	}
	fmt.Print(bench.FormatTable(headers, rows))
}

// measureLatency times a single host-to-host message end to end.
func measureLatency(size int) time.Duration {
	eng := sim.NewEngine()
	world := mpi.NewWorld(cluster.New(eng, studyOr(cluster.RICC), 2))
	var arrived time.Duration
	world.LaunchRanks("lat", func(p *sim.Proc, ep *mpi.Endpoint) {
		buf := make([]byte, size)
		if ep.Rank() == 0 {
			ep.Send(p, buf, 1, 0, mpi.Bytes, world.Comm())
		} else {
			ep.Recv(p, buf, 0, 0, mpi.Bytes, world.Comm())
			arrived = p.Now().Duration()
		}
	})
	tool.Check(eng.Run())
	return arrived
}

package himeno

import (
	"fmt"
	"time"

	"repro/internal/cl"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes one Himeno run.
type Config struct {
	System  cluster.System
	Nodes   int
	Size    Size
	Iters   int
	Impl    Impl
	Mode    InitMode
	Options clmpi.Options // extension options (zero value = Auto strategy)
	// Verify makes the run compute data: the real float32 stencil, halo
	// packing and the residual, with the final global pressure grid
	// assembled into Result.Grid (outside the timed region, via simulator
	// shortcuts). Checkpointing (CheckpointEvery > 0) computes data too.
	// Any other run is pure cost: the same commands, transfers and virtual
	// time, but kernels have no Work, packs touch no bytes and no rank
	// allocates a grid. Virtual time never depends on data, so Elapsed,
	// GFLOPS and the trace are the same either way.
	Verify bool
	// Trace, when non-nil, records every queue's command timeline — the
	// raw material of the Fig. 4 reproduction.
	Trace *trace.Tracer
	// CheckpointEvery, when positive, snapshots the solver state to
	// node-local storage every so many iterations using the extension's
	// file I/O commands (§VI future work). Supported by the CLMPI
	// implementation.
	CheckpointEvery int
	// CheckpointPath is the node-local file prefix (default "himeno.ckpt").
	CheckpointPath string
}

// Result reports a run's outcome.
type Result struct {
	// Elapsed is the virtual time of the iteration loop, max across ranks.
	Elapsed time.Duration
	// Gosa is the global residual of the last iteration; filled only when
	// the run computes data (Config.Verify or checkpointing), else 0.
	Gosa float64
	// GFLOPS is the sustained rate by the benchmark's nominal count.
	GFLOPS float64
	// CompTime and CommTime split the serial implementation's loop into
	// kernel time and exposed communication time (max-communication rank);
	// zero for the overlapped implementations.
	CompTime, CommTime time.Duration
	// Grid is the final global pressure field; filled only under
	// Config.Verify.
	Grid []float32
	// CheckpointVerified reports (when Verify is set, checkpointing is on,
	// and the final iteration was checkpointed) whether every rank's file
	// matched its device state bit-for-bit.
	CheckpointVerified bool
}

// Run executes one configuration on a fresh simulated cluster and returns
// the measured result.
func Run(cfg Config) (*Result, error) { return run(sim.NewEngine(), cfg) }

// run executes cfg on eng, which must be fresh.
func run(eng *sim.Engine, cfg Config) (*Result, error) {
	if cfg.Iters <= 0 {
		return nil, fmt.Errorf("himeno: iterations must be positive, got %d", cfg.Iters)
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("himeno: need at least one node")
	}
	clus := cluster.New(eng, cfg.System, cfg.Nodes)
	world := mpi.NewWorld(clus)
	fab := clmpi.New(world, cfg.Options)
	if cfg.Trace != nil {
		// Feed the cluster, MPI and fabric layers into the tracer's bus;
		// each rank's context adds its queues below.
		cfg.Trace.Instrument(clus, world, fab)
	}

	ranks := make([]*rank, cfg.Nodes)
	elapsed := make([]time.Duration, cfg.Nodes)
	gosas := make([]float64, cfg.Nodes)
	ckptOK := make([]bool, cfg.Nodes)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}

	world.LaunchRanks("himeno", func(p *sim.Proc, ep *mpi.Endpoint) {
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), fmt.Sprintf("himeno%d", ep.Rank()))
		if cfg.Trace != nil {
			cfg.Trace.InstrumentContext(ctx)
		}
		rt := fab.Attach(ctx, ep)
		rk, err := newRank(cfg.Size, cfg.Mode, cfg.Nodes, cfg.Verify || cfg.CheckpointEvery > 0, ep, ctx, rt)
		if err != nil {
			fail(err)
			return
		}
		rk.trc = cfg.Trace
		if cfg.CheckpointEvery > 0 {
			if cfg.Impl != CLMPI {
				fail(fmt.Errorf("himeno: checkpointing requires the CLMPI implementation, not %v", cfg.Impl))
				return
			}
			path := cfg.CheckpointPath
			if path == "" {
				path = "himeno.ckpt"
			}
			if err := rk.initCheckpointer(cfg.CheckpointEvery, path); err != nil {
				fail(err)
				return
			}
		}
		ranks[ep.Rank()] = rk

		if err := ep.Barrier(p, world.Comm()); err != nil {
			fail(err)
			return
		}
		start := p.Now()
		switch cfg.Impl {
		case Serial:
			err = rk.runSerial(p, world.Comm(), cfg.Iters)
		case HandOpt:
			err = rk.runTwoStage(p, world.Comm(), cfg.Iters, "handopt",
				func(p *sim.Proc, qx *cl.CommandQueue, comm *mpi.Comm, arr []float32, dir direction) error {
					return rk.hostExchange(p, qx, comm, arr, dir)
				})
		case CLMPI:
			err = rk.runCLMPI(p, world.Comm(), cfg.Iters)
		case GPUAware:
			err = rk.runTwoStage(p, world.Comm(), cfg.Iters, "gpuaware", rk.gpuAwareExchange)
		case CLMPIOutOfOrder:
			err = rk.runCLMPIOutOfOrder(p, world.Comm(), cfg.Iters)
		default:
			err = fmt.Errorf("himeno: unknown implementation %v", cfg.Impl)
		}
		if err != nil {
			fail(err)
			return
		}
		if err := ep.Barrier(p, world.Comm()); err != nil {
			fail(err)
			return
		}
		elapsed[ep.Rank()] = p.Now().Sub(start)
		total, err := ep.AllreduceSum(p, rk.gosa, world.Comm())
		if err != nil {
			fail(err)
			return
		}
		gosas[ep.Rank()] = total
		if cfg.Verify && rk.ckpt != nil && rk.ckpt.iter == cfg.Iters {
			// After the final swap the checkpointed array is rk.p.
			ok, err := rk.verifyCheckpoint(p, rk.p)
			if err != nil {
				fail(err)
				return
			}
			ckptOK[ep.Rank()] = ok
		}
	})
	simErr := eng.Run()
	// An application error (e.g. an impossible decomposition on one rank)
	// usually strands the other ranks in a collective; report the root
	// cause, not the resulting deadlock.
	if firstErr != nil {
		return nil, firstErr
	}
	if simErr != nil {
		return nil, fmt.Errorf("himeno: simulation failed: %w", simErr)
	}

	res := &Result{Gosa: gosas[0]}
	if cfg.Verify && cfg.CheckpointEvery > 0 && cfg.Iters%cfg.CheckpointEvery == 0 {
		res.CheckpointVerified = true
		for _, ok := range ckptOK {
			res.CheckpointVerified = res.CheckpointVerified && ok
		}
	}
	for r := 0; r < cfg.Nodes; r++ {
		if elapsed[r] > res.Elapsed {
			res.Elapsed = elapsed[r]
		}
		if ranks[r].commTime > res.CommTime {
			res.CommTime = ranks[r].commTime
			res.CompTime = ranks[r].compTime
		}
	}
	res.GFLOPS = cfg.Size.FLOPsPerIter() * float64(cfg.Iters) / res.Elapsed.Seconds() / 1e9
	if cfg.Verify {
		res.Grid = make([]float32, cfg.Size.I*cfg.Size.J*cfg.Size.K)
		// The boundary planes are never updated; take them from the
		// initial field, then overlay each rank's owned interior planes.
		s := cfg.Size
		for _, i := range []int{0, s.I - 1} {
			for j := 0; j < s.J; j++ {
				initRow(cfg.Mode, s, i, j, res.Grid[idx(s.J, s.K, i, j, 0):][:s.K])
			}
		}
		for _, rk := range ranks {
			rk.gatherInterior(res.Grid)
		}
	}
	// The simulation has finished, so no kernel or transfer still holds
	// the grids or the staging planes.
	for _, rk := range ranks {
		putGrid(rk.p)
		putGrid(rk.wrk)
		for d := range rk.staging {
			rk.staging[d][0].Release()
			rk.staging[d][1].Release()
		}
	}
	return res, nil
}

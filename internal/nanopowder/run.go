package nanopowder

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/bytepool"
	"repro/internal/cl"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Impl selects the coefficient-distribution implementation of §V-D.
type Impl int

const (
	// Baseline uses plain MPI_Isend / MPI_Recv + clEnqueueWriteBuffer.
	Baseline Impl = iota
	// CLMPI uses MPI_Isend with the CLMem datatype and
	// clEnqueueRecvBuffer, enabling the pipelined transfer.
	CLMPI
)

func (im Impl) String() string {
	if im == Baseline {
		return "baseline"
	}
	return "clMPI"
}

// message tags.
const (
	tagCoeff   = 1
	tagSource  = 2
	tagSummary = 3
)

// Config describes one nanopowder run.
type Config struct {
	System cluster.System
	Nodes  int
	Impl   Impl
	Params Params
	// Verify makes the run compute data: the master builds every cell's
	// coefficients, each rank integrates its cells' populations, and the
	// result carries MassPerStep and Final. Any other run is pure cost:
	// the same commands, transfers and virtual time, but no rank builds a
	// model, the coagulation kernel has no Work, and the coefficient slices
	// travel as never-written device-memory windows that move no bytes.
	// Virtual time never depends on data, so Elapsed and StepTime are the
	// same either way.
	Verify bool
}

// Result reports a run's outcome.
type Result struct {
	Elapsed  time.Duration // whole simulation, virtual time
	StepTime time.Duration // Elapsed / Steps
	// SerialTime is the master's per-run total in the non-parallel phase;
	// DistCompute is the remainder (distribution + coagulation + gather).
	SerialTime  time.Duration
	DistCompute time.Duration
	// MassPerStep is the global particle mass after each step; filled
	// only under Config.Verify.
	MassPerStep []float64
	// Final holds every cell's population; filled only under
	// Config.Verify.
	Final [][]float64
}

// Run executes one configuration on a fresh simulated cluster.
func Run(cfg Config) (*Result, error) { return run(sim.NewEngine(), cfg, nil) }

// run executes cfg on eng, which must be fresh, recording the cluster, MPI
// and fabric layers onto trc when it is non-nil.
func run(eng *sim.Engine, cfg Config, trc *trace.Tracer) (*Result, error) {
	p := cfg.Params
	if err := p.validate(cfg.Nodes); err != nil {
		return nil, err
	}
	clus := cluster.New(eng, cfg.System, cfg.Nodes)
	world := mpi.NewWorld(clus)
	fab := clmpi.New(world, clmpi.Options{})
	if trc != nil {
		trc.Instrument(clus, world, fab)
	}
	cpn := p.Cells / cfg.Nodes // cells per node
	cellB := p.cellCoeffBytes()

	res := &Result{}
	if cfg.Verify {
		res.MassPerStep = make([]float64, p.Steps)
		res.Final = make([][]float64, p.Cells)
	}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}

	world.LaunchRanks("nano", func(hp *sim.Proc, ep *mpi.Endpoint) {
		me := ep.Rank()
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), fmt.Sprintf("nano%d", me))
		rt := fab.Attach(ctx, ep)
		q := ctx.NewQueue(fmt.Sprintf("nano.q%d", me))

		coefBuf, err := ctx.CreateBuffer("coeffs", int64(cpn)*cellB)
		if err != nil {
			fail(err)
			return
		}
		mySrc := make([]float64, cpn)
		kernel := &cl.Kernel{
			Name:  "coagulation",
			FLOPs: func([]any) float64 { return p.coagFLOPsPerCell() * float64(cpn) },
		}
		// Every rank owns cells [me*cpn, (me+1)*cpn) and, when the run
		// computes data, builds only their populations. myCells stays nil
		// in a pure-cost run.
		var myCells [][]float64
		if cfg.Verify {
			myCells = make([][]float64, cpn)
			for i := range myCells {
				myCells[i] = initialPopulation(p)
			}
			kernel.Work = func([]any) error {
				for i := 0; i < cpn; i++ {
					coagulateCell(p, myCells[i], coefBuf.Bytes()[int64(i)*cellB:], mySrc[i])
				}
				return nil
			}
		}

		if me == 0 {
			err = runMaster(hp, ep, world.Comm(), q, cfg, cpn, coefBuf, mySrc, kernel, myCells, res)
		} else {
			err = runWorker(hp, ep, world.Comm(), rt, q, p, cfg.Impl, cpn, coefBuf, mySrc, kernel, myCells)
		}
		if err != nil {
			fail(err)
			return
		}
		// Every command on q has finished.
		coefBuf.Release()
		for i, n := range myCells {
			res.Final[me*cpn+i] = n
		}
	})
	simErr := eng.Run()
	if firstErr != nil {
		return nil, firstErr // root cause, not the stranded-rank deadlock
	}
	if simErr != nil {
		return nil, fmt.Errorf("nanopowder: simulation failed: %w", simErr)
	}
	res.StepTime = res.Elapsed / time.Duration(p.Steps)
	return res, nil
}

// runMaster is rank 0: serial phenomena, coefficient construction and
// distribution, its own share of the coagulation, and the summary gather.
// myCells is nil in a pure-cost run, which builds no model.
func runMaster(hp *sim.Proc, ep *mpi.Endpoint, comm *mpi.Comm, q *cl.CommandQueue,
	cfg Config, cpn int, coefBuf *cl.Buffer, mySrc []float64, kernel *cl.Kernel, myCells [][]float64, res *Result) error {

	p := cfg.Params
	cellB := p.cellCoeffBytes()
	nodes := cfg.Nodes
	cpu := ep.Node().Sys.CPU
	var m *model
	if myCells != nil {
		m = newModel(p)
	}
	// Wire buffers for each worker's slice, reused across steps. The
	// coefficient slices are stores: rewritten every step when the run
	// computes data, and never written (so never materialized, and sent as
	// zero extents) when it does not.
	wireB := cpn * int(cellB)
	coeffWire := make([]*bytepool.Store, nodes)
	srcWire := make([][]byte, nodes)
	summaries := make([][]byte, nodes)
	for r := 1; r < nodes; r++ {
		coeffWire[r] = bytepool.NewStore(wireB)
		srcWire[r] = make([]byte, cpn*8)
		summaries[r] = make([]byte, cpn*8)
	}

	start := hp.Now()
	for step := 0; step < p.Steps; step++ {
		// Serial phase: the non-parallelized phenomena run on one host
		// thread (§V-D); the cost model charges the modelled work, the
		// real computation constructs this step's sources/coefficients.
		t0 := hp.Now()
		if m != nil {
			src := m.advanceScalars(step)
			for r := 1; r < nodes; r++ {
				wire := coeffWire[r].Bytes()
				for i := 0; i < cpn; i++ {
					c := r*cpn + i
					m.buildCoeffs(c, wire[int64(i)*cellB:])
					binary.LittleEndian.PutUint64(srcWire[r][i*8:], math.Float64bits(src[c]))
				}
			}
			// The master's own cells: the local coefficient upload below.
			for i := 0; i < cpn; i++ {
				m.buildCoeffs(i, coefBuf.Bytes()[int64(i)*cellB:])
				mySrc[i] = src[i]
			}
		}
		// seconds = FLOPs / (GFLOPS·1e9)  →  nanoseconds = FLOPs / GFLOPS.
		hp.Sleep(time.Duration(p.serialFLOPs() / cpu.GFLOPS))
		res.SerialTime += hp.Now().Sub(t0)

		t1 := hp.Now()
		// Distribute coefficient slices to the workers.
		var reqs []*mpi.Request
		dtype := mpi.Bytes
		if cfg.Impl == CLMPI {
			dtype = mpi.CLMem
		}
		for r := 1; r < nodes; r++ {
			sreq, err := ep.IsendSeg(hp, coeffWire[r].Seg(0, wireB), r, tagCoeff, dtype, comm)
			if err != nil {
				return err
			}
			s2, err := ep.Isend(hp, srcWire[r], r, tagSource, mpi.Bytes, comm)
			if err != nil {
				return err
			}
			reqs = append(reqs, sreq, s2)
		}
		// Charge the local H2D for the master's slice.
		if _, err := q.Enqueue("h2d-own", nil, func(wp *sim.Proc) error {
			ep.Node().HostToDevice(wp, int64(cpn)*cellB, cluster.Pageable)
			return nil
		}); err != nil {
			return err
		}
		if _, err := q.EnqueueNDRangeKernel(kernel, nil, nil); err != nil {
			return err
		}
		if err := q.Finish(hp); err != nil {
			return err
		}
		if err := mpi.Waitall(hp, reqs...); err != nil {
			return err
		}
		// Gather the per-cell mass summaries.
		total := 0.0
		for _, n := range myCells {
			total += mass(n)
		}
		for r := 1; r < nodes; r++ {
			if _, err := ep.Recv(hp, summaries[r], r, tagSummary, mpi.Bytes, comm); err != nil {
				return err
			}
			for i := 0; i < cpn; i++ {
				total += math.Float64frombits(binary.LittleEndian.Uint64(summaries[r][i*8:]))
			}
		}
		if res.MassPerStep != nil {
			res.MassPerStep[step] = total
		}
		res.DistCompute += hp.Now().Sub(t1)
	}
	res.Elapsed = hp.Now().Sub(start)
	// Every send has completed: nothing reads the wire buffers any more.
	for _, st := range coeffWire[1:] {
		st.Release()
	}
	return nil
}

// runWorker is any rank > 0: receive coefficients, integrate, report.
// myCells is nil in a pure-cost run.
func runWorker(hp *sim.Proc, ep *mpi.Endpoint, comm *mpi.Comm, rt *clmpi.Runtime, q *cl.CommandQueue,
	p Params, impl Impl, cpn int, coefBuf *cl.Buffer, mySrc []float64, kernel *cl.Kernel, myCells [][]float64) error {

	cellB := p.cellCoeffBytes()
	wireB := int64(cpn) * cellB
	srcWire := make([]byte, cpn*8)
	summary := make([]byte, cpn*8)
	var hostCoef *bytepool.Store // baseline staging: written only when the run computes data
	if impl == Baseline {
		hostCoef = bytepool.NewStore(int(wireB))
		defer hostCoef.Release()
	}
	for step := 0; step < p.Steps; step++ {
		if _, err := ep.Recv(hp, srcWire, 0, tagSource, mpi.Bytes, comm); err != nil {
			return err
		}
		for i := range mySrc {
			mySrc[i] = math.Float64frombits(binary.LittleEndian.Uint64(srcWire[i*8:]))
		}
		switch impl {
		case Baseline:
			// Fig. 1 pattern: blocking receive into host memory, then a
			// serialized write to the device, then the kernel.
			req, err := ep.IrecvSeg(hp, hostCoef.Seg(0, int(wireB)), 0, tagCoeff, mpi.Bytes, comm)
			if err != nil {
				return err
			}
			if _, err := req.Wait(hp); err != nil {
				return err
			}
			if _, err := q.EnqueueWriteBuffer(hp, coefBuf, true, 0, wireB, hostCoef.Seg(0, int(wireB)), cluster.Pageable, nil); err != nil {
				return err
			}
			if _, err := q.EnqueueNDRangeKernel(kernel, nil, nil); err != nil {
				return err
			}
		case CLMPI:
			// §V-D: replacing MPI_Recv + clEnqueueWriteBuffer with
			// clEnqueueRecvBuffer turns the transfer into a pipelined
			// command; the kernel is gated on its event.
			evRecv, err := rt.EnqueueRecvBuffer(hp, q, coefBuf, false, 0, wireB, 0, tagCoeff, comm, nil)
			if err != nil {
				return err
			}
			if _, err := q.EnqueueNDRangeKernel(kernel, nil, []*cl.Event{evRecv}); err != nil {
				return err
			}
		}
		if err := q.Finish(hp); err != nil {
			return err
		}
		// Report per-cell masses for the global bookkeeping.
		for i, n := range myCells {
			binary.LittleEndian.PutUint64(summary[i*8:], math.Float64bits(mass(n)))
		}
		if err := ep.Send(hp, summary, 0, tagSummary, mpi.Bytes, comm); err != nil {
			return err
		}
	}
	return nil
}

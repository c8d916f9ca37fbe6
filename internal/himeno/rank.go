package himeno

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/bytepool"
	"repro/internal/cl"
	"repro/internal/clmpi"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// markIter records an app-layer iteration boundary on the trace bus, the
// anchor for per-iteration overlap metrics.
func (rk *rank) markIter(p *sim.Proc, it int) {
	if rk.trc != nil {
		rk.trc.Bus().Instant(trace.LayerApp, fmt.Sprintf("rank%d", rk.ep.Rank()),
			fmt.Sprintf("iter %d", it), p.Now())
	}
}

// Impl selects one of the paper's three Himeno implementations.
type Impl int

const (
	Serial Impl = iota
	HandOpt
	CLMPI
	// GPUAware is the related-work approach of §II: MPI functions accept
	// device buffers and stage optimally inside, but the host thread still
	// orchestrates (and blocks for) every transfer — no event integration.
	GPUAware
	// CLMPIOutOfOrder is the Fig. 6 dataflow on a single out-of-order
	// queue per rank: same event DAG, same results, one queue.
	CLMPIOutOfOrder
)

func (im Impl) String() string {
	switch im {
	case Serial:
		return "serial"
	case HandOpt:
		return "hand-optimized"
	case CLMPI:
		return "clMPI"
	case GPUAware:
		return "gpu-aware-mpi"
	case CLMPIOutOfOrder:
		return "clMPI-ooo"
	default:
		return fmt.Sprintf("Impl(%d)", int(im))
	}
}

// ParseImpl resolves an implementation name.
func ParseImpl(name string) (Impl, error) {
	switch name {
	case "serial":
		return Serial, nil
	case "handopt", "hand-optimized":
		return HandOpt, nil
	case "clmpi", "clMPI":
		return CLMPI, nil
	case "gpuaware", "gpu-aware-mpi":
		return GPUAware, nil
	case "clmpi-ooo", "clMPI-ooo":
		return CLMPIOutOfOrder, nil
	}
	return Serial, fmt.Errorf("himeno: unknown implementation %q", name)
}

// halo tags per direction.
const (
	tagUp   = 100 // plane travelling towards rank-1
	tagDown = 101 // plane travelling towards rank+1
)

// rank holds one process's share of the domain and its device resources.
//
// The pressure arrays live in (modelled) device memory as float32 slices;
// kernels operate on them directly. Halo planes cross the device boundary
// through the plane staging buffers, moved by pack/unpack kernels — the
// standard structure of GPU stencil codes, and the one that gives the clMPI
// commands real device buffers to transfer.
type rank struct {
	size Size
	mode InitMode
	ep   *mpi.Endpoint
	ctx  *cl.Context
	rt   *clmpi.Runtime
	trc  *trace.Tracer // optional Fig. 4 timeline recorder

	lo, hi int // owned global planes [lo, hi)
	own    int // hi - lo
	half   int // planes in part A (the upper half)

	// data reports whether the run computes data (see Config.Verify).
	// Without it p and wrk are nil and every kernel, pack and unpack is
	// pure cost: the same commands and virtual time, no bytes touched.
	data bool

	p, wrk []float32 // local grid incl. ghost planes 0 and own+1

	// Plane staging buffers in device memory (J*K float32 each).
	sendLo, sendHi, recvLo, recvHi *cl.Buffer

	// hostExchange's host staging planes per direction: send, recv.
	staging [2][2]bytepool.Store

	gosa float64 // residual accumulated by the last iteration's kernels

	compTime time.Duration // device kernel time (serial impl bookkeeping)
	commTime time.Duration // exposed communication time (serial impl)

	ckpt *checkpointer // non-nil when checkpointing is configured
}

// planeBytes reports the wire size of one halo plane.
func (s Size) planeBytes() int64 { return int64(s.J) * int64(s.K) * 4 }

// decompose assigns interior planes [1, I-1) to n ranks as evenly as
// possible, earlier ranks taking the remainder.
func decompose(s Size, n, r int) (lo, hi int) {
	interior := s.I - 2
	base := interior / n
	rem := interior % n
	lo = 1 + r*base + min(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}

// gridPools recycles local grids across runs that compute data, one
// sync.Pool per exact length. A verification suite re-runs the same
// decompositions, and each run's grids are megabytes of garbage that would
// otherwise set the collector's pace.
var gridPools sync.Map // int -> *sync.Pool of *[]float32

// getGrid returns a grid of n cells with arbitrary contents.
func getGrid(n int) []float32 {
	if v, ok := gridPools.Load(n); ok {
		if g, _ := v.(*sync.Pool).Get().(*[]float32); g != nil {
			return *g
		}
	}
	return make([]float32, n)
}

// putGrid recycles a grid; the caller must hold no alias to it. A nil grid
// (a pure-cost rank) is ignored.
func putGrid(g []float32) {
	if g == nil {
		return
	}
	v, ok := gridPools.Load(len(g))
	if !ok {
		v, _ = gridPools.LoadOrStore(len(g), new(sync.Pool))
	}
	v.(*sync.Pool).Put(&g)
}

// newRank builds the local state for rank r of n. With data false it
// allocates no grid. Config.Check keeps n within Size.MaxNodes, so every
// rank owns the two planes its A/B split needs.
func newRank(s Size, mode InitMode, n int, data bool, ep *mpi.Endpoint, ctx *cl.Context, rt *clmpi.Runtime) (*rank, error) {
	lo, hi := decompose(s, n, ep.Rank())
	own := hi - lo
	rk := &rank{
		size: s, mode: mode, ep: ep, ctx: ctx, rt: rt, data: data,
		lo: lo, hi: hi, own: own, half: own / 2,
	}
	if data {
		rk.p = getGrid((own + 2) * s.J * s.K)
		for li := 0; li < own+2; li++ {
			gi := lo - 1 + li
			if gi < 0 || gi >= s.I {
				// Beyond the global domain (edge ranks): zero, as the grid
				// may be recycled.
				clear(rk.p[idx(s.J, s.K, li, 0, 0):][:s.J*s.K])
				continue
			}
			for j := 0; j < s.J; j++ {
				initRow(mode, s, gi, j, rk.p[idx(s.J, s.K, li, j, 0):][:s.K])
			}
		}
		rk.wrk = getGrid(len(rk.p))
		copy(rk.wrk, rk.p)
	}
	pb := s.planeBytes()
	for d := range rk.staging {
		rk.staging[d] = [2]bytepool.Store{*bytepool.NewStore(int(pb)), *bytepool.NewStore(int(pb))}
	}
	var err error
	if rk.sendLo, err = ctx.CreateBuffer("sendLo", pb); err != nil {
		return nil, err
	}
	if rk.sendHi, err = ctx.CreateBuffer("sendHi", pb); err != nil {
		return nil, err
	}
	if rk.recvLo, err = ctx.CreateBuffer("recvLo", pb); err != nil {
		return nil, err
	}
	if rk.recvHi, err = ctx.CreateBuffer("recvHi", pb); err != nil {
		return nil, err
	}
	return rk, nil
}

// upRank / downRank report neighbours, or -1 at the domain edges.
func (rk *rank) upRank() int {
	if rk.ep.Rank() == 0 {
		return -1
	}
	return rk.ep.Rank() - 1
}

func (rk *rank) downRank() int {
	if rk.ep.Rank() == rk.ep.Size()-1 {
		return -1
	}
	return rk.ep.Rank() + 1
}

// jacobiKernel builds the stencil kernel over local planes [liFrom, liTo) of
// src, writing dst and accumulating the squared residual into rk.gosa. A
// run without data gets the pure-cost kernel: same FLOPs, nil Work.
func (rk *rank) jacobiKernel(name string, src, dst []float32, liFrom, liTo int) *cl.Kernel {
	s := rk.size
	k := &cl.Kernel{
		Name: name,
		FLOPs: func([]any) float64 {
			return FLOPsPerCell * float64(liTo-liFrom) * float64(s.J-2) * float64(s.K-2)
		},
	}
	if rk.data {
		k.Work = func([]any) error {
			var gosa float64
			for li := liFrom; li < liTo; li++ {
				for j := 1; j < s.J-1; j++ {
					gosa = stencilRow(src, dst, s.J, s.K, li, j, gosa)
				}
			}
			rk.gosa += gosa
			return nil
		}
	}
	return k
}

// planeKernelCost models pack/unpack as GDDR-bandwidth-bound copies.
func (rk *rank) planeKernelCost() time.Duration {
	const gddrBW = 100e9 // bytes/s, order of Tesla-class memory systems
	return 3*time.Microsecond + time.Duration(float64(rk.size.planeBytes())/gddrBW*1e9)
}

// enqueuePack copies local plane li of src into the staging buffer. Packing
// runs on the device's copy path (DMA-engine style), not the compute unit,
// so it never queues behind a running Jacobi kernel — matching hardware of
// the paper's era, whose copy engines work alongside the SMs.
func (rk *rank) enqueuePack(q *cl.CommandQueue, src []float32, li int, buf *cl.Buffer, waits []*cl.Event) (*cl.Event, error) {
	s := rk.size
	cost := rk.planeKernelCost()
	return q.Enqueue(fmt.Sprintf("pack(li=%d)", li), waits, func(wp *sim.Proc) error {
		wp.Sleep(cost)
		if !rk.data {
			return nil
		}
		out := buf.Bytes()
		base := li * s.J * s.K
		for x := 0; x < s.J*s.K; x++ {
			binary.LittleEndian.PutUint32(out[x*4:], math.Float32bits(src[base+x]))
		}
		return nil
	})
}

// enqueueUnpack copies the staging buffer into local plane li of dst.
func (rk *rank) enqueueUnpack(q *cl.CommandQueue, dst []float32, li int, buf *cl.Buffer, waits []*cl.Event) (*cl.Event, error) {
	s := rk.size
	cost := rk.planeKernelCost()
	return q.Enqueue(fmt.Sprintf("unpack(li=%d)", li), waits, func(wp *sim.Proc) error {
		wp.Sleep(cost)
		if !rk.data {
			return nil
		}
		in := buf.Bytes()
		base := li * s.J * s.K
		for x := 0; x < s.J*s.K; x++ {
			dst[base+x] = math.Float32frombits(binary.LittleEndian.Uint32(in[x*4:]))
		}
		return nil
	})
}

// gatherInterior copies the rank's owned planes into a full-size global grid
// (used by verification).
func (rk *rank) gatherInterior(global []float32) {
	s := rk.size
	for li := 1; li <= rk.own; li++ {
		gi := rk.lo - 1 + li
		copy(global[idx(s.J, s.K, gi, 0, 0):idx(s.J, s.K, gi+1, 0, 0)],
			rk.p[idx(s.J, s.K, li, 0, 0):idx(s.J, s.K, li+1, 0, 0)])
	}
}

// checkpointing state, active when Config.CheckpointEvery > 0 (CLMPI
// implementation only): the full local grid is packed into a device buffer
// and written to node-local storage with EnqueueWriteBufferToFile, gated on
// the iteration's completion and overlapping subsequent compute — the
// paper's §VI file-I/O direction applied to a real solver.
type checkpointer struct {
	every int
	path  string
	buf   *cl.Buffer
	qio   *cl.CommandQueue
	last  *cl.Event
	iter  int // iteration captured by the last checkpoint
}

// localGridBytes is the wire size of the rank's owned planes (no ghosts).
func (rk *rank) localGridBytes() int64 {
	return int64(rk.own) * int64(rk.size.J) * int64(rk.size.K) * 4
}

// initCheckpointer allocates the staging buffer and I/O queue.
func (rk *rank) initCheckpointer(every int, path string) error {
	buf, err := rk.ctx.CreateBuffer("ckpt", rk.localGridBytes())
	if err != nil {
		return err
	}
	rk.ckpt = &checkpointer{
		every: every,
		path:  fmt.Sprintf("%s.rank%d", path, rk.ep.Rank()),
		buf:   buf,
		qio:   rk.ctx.NewQueue(fmt.Sprintf("ckpt.q%d", rk.ep.Rank())),
	}
	return nil
}

// enqueuePackGrid copies the owned planes of src into the checkpoint buffer.
func (rk *rank) enqueuePackGrid(src []float32, waits []*cl.Event) (*cl.Event, error) {
	s := rk.size
	n := rk.own * s.J * s.K
	cost := 3*time.Microsecond + time.Duration(float64(rk.localGridBytes())/100e9*1e9)
	return rk.ckpt.qio.Enqueue("pack-grid", waits, func(wp *sim.Proc) error {
		wp.Sleep(cost)
		out := rk.ckpt.buf.Bytes()
		base := 1 * s.J * s.K // skip the low ghost plane
		for x := 0; x < n; x++ {
			binary.LittleEndian.PutUint32(out[x*4:], math.Float32bits(src[base+x]))
		}
		return nil
	})
}

// maybeCheckpoint snapshots arr (the array holding the just-completed
// iteration's values) if the schedule calls for it. gate orders the pack
// after the iteration's final command. The write proceeds in the background;
// callers that mutate arr afterwards are safe because the pack itself is
// what captures the data, and it runs on the in-order I/O queue before the
// caller's next Finish of that queue... which only happens at the end of
// the run (finishCheckpoints).
func (rk *rank) maybeCheckpoint(p *sim.Proc, iter int, arr []float32, gate []*cl.Event) error {
	c := rk.ckpt
	if c == nil || c.every <= 0 || (iter+1)%c.every != 0 {
		return nil
	}
	pev, err := rk.enqueuePackGrid(arr, gate)
	if err != nil {
		return err
	}
	wev, err := rk.rt.EnqueueWriteBufferToFile(p, c.qio, c.buf, false, 0, rk.localGridBytes(), c.path, 0, []*cl.Event{pev})
	if err != nil {
		return err
	}
	// Wait only for the pack (a fast on-device copy) so the snapshot is
	// immutable before the solver advances; the slow disk write overlaps
	// the following iterations.
	if err := pev.Wait(p); err != nil {
		return err
	}
	c.last = wev
	c.iter = iter + 1
	return nil
}

// finishCheckpoints waits for the trailing checkpoint write.
func (rk *rank) finishCheckpoints(p *sim.Proc) error {
	if rk.ckpt == nil || rk.ckpt.last == nil {
		return nil
	}
	return rk.ckpt.last.Wait(p)
}

// verifyCheckpoint reads the file back and compares it with expect (the
// rank's owned planes at the checkpointed iteration); used by tests via
// Config.Verify.
func (rk *rank) verifyCheckpoint(p *sim.Proc, expect []float32) (bool, error) {
	c := rk.ckpt
	if c == nil || c.last == nil {
		return true, nil
	}
	s := rk.size
	rb, err := rk.ctx.CreateBuffer("ckpt-verify", rk.localGridBytes())
	if err != nil {
		return false, err
	}
	if _, err := rk.rt.EnqueueReadBufferFromFile(p, c.qio, rb, true, 0, rk.localGridBytes(), c.path, 0, nil); err != nil {
		return false, err
	}
	n := rk.own * s.J * s.K
	base := 1 * s.J * s.K
	for x := 0; x < n; x++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(rb.Bytes()[x*4:]))
		if v != expect[base+x] {
			return false, nil
		}
	}
	return true, rb.Release()
}

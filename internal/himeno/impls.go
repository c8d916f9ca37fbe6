package himeno

import (
	"fmt"

	"repro/internal/bytepool"
	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// direction of a halo exchange.
type direction int

const (
	dirUp   direction = iota // exchange with rank-1 (part A's halo)
	dirDown                  // exchange with rank+1 (part B's halo)
)

// exchangeSpec resolves the planes and tags of one direction.
func (rk *rank) exchangeSpec(dir direction) (peer, sendLi, ghostLi, sendTag, recvTag int, sendBuf, recvBuf *cl.Buffer) {
	if dir == dirUp {
		return rk.upRank(), 1, 0, tagUp, tagDown, rk.sendLo, rk.recvLo
	}
	return rk.downRank(), rk.own, rk.own + 1, tagDown, tagUp, rk.sendHi, rk.recvHi
}

// hostExchange performs the halo exchanges of arr for dirs entirely from
// the host thread, blocking at each step — the conventional
// joint-programming pattern of Fig. 1: pack, blocking read (through freshly
// pinned staging), MPI, blocking write, unpack. arr is the array whose halo
// is exchanged (p or wrk, depending on the stage). Every direction's MPI
// operations are posted before any is waited for, which avoids the O(ranks)
// wave a direction-at-a-time schedule would create — this is how the
// original Himeno MPI code is written. A direction without a neighbour is
// skipped, and with none left the call is a no-op.
func (rk *rank) hostExchange(p *sim.Proc, q *cl.CommandQueue, comm *mpi.Comm, arr []float32, dirs ...direction) error {
	g := rk.ep.Node().Sys.GPU
	pb := rk.size.planeBytes()
	// incoming is one live direction's ghost plane and its staging planes,
	// which are fully overwritten (read-back / message delivery) before
	// they are read.
	type incoming struct {
		ghostLi    int
		buf        *cl.Buffer
		send, recv bytepool.Seg
	}
	var (
		ins  [2]incoming
		reqs [4]*mpi.Request
		n    int
	)
	for _, dir := range dirs {
		peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(dir)
		if peer < 0 {
			continue
		}
		st := &rk.staging[dir]
		in := incoming{ghostLi, recvBuf, st[0].Seg(0, int(pb)), st[1].Seg(0, int(pb))}
		if _, err := rk.enqueuePack(q, arr, sendLi, sendBuf, nil); err != nil {
			return err
		}
		// Footnote 1 of the paper: pinned host buffers come from map-based
		// allocation, so a fresh staging buffer costs a registration.
		p.Sleep(g.PinSetup)
		if _, err := q.EnqueueReadBuffer(p, sendBuf, true, 0, pb, in.send, cluster.Pinned, nil); err != nil {
			return err
		}
		sreq, err := rk.ep.IsendSeg(p, in.send, peer, sendTag, mpi.Bytes, comm)
		if err != nil {
			return err
		}
		rreq, err := rk.ep.IrecvSeg(p, in.recv, peer, recvTag, mpi.Bytes, comm)
		if err != nil {
			return err
		}
		reqs[2*n], reqs[2*n+1] = sreq, rreq
		ins[n] = in
		n++
	}
	if n == 0 {
		return nil
	}
	if err := mpi.Waitall(p, reqs[:2*n]...); err != nil {
		return err
	}
	for _, in := range ins[:n] {
		p.Sleep(g.PinSetup)
		if _, err := q.EnqueueWriteBuffer(p, in.buf, true, 0, pb, in.recv, cluster.Pinned, nil); err != nil {
			return err
		}
		if _, err := rk.enqueueUnpack(q, arr, in.ghostLi, in.buf, nil); err != nil {
			return err
		}
	}
	return q.Finish(p)
}

// runSerial is the fully serialized implementation: one kernel over the
// whole subdomain, then both halo exchanges, nothing overlapping (§V-C's
// lower bound). It records the split of compute vs communication time that
// Fig. 9(a) annotates.
func (rk *rank) runSerial(p *sim.Proc, comm *mpi.Comm, iters int) error {
	q := rk.ctx.NewQueue(fmt.Sprintf("serial.q%d", rk.ep.Rank()))
	for it := 0; it < iters; it++ {
		rk.markIter(p, it)
		rk.gosa = 0
		t0 := p.Now()
		k := rk.jacobiKernel("jacobi", rk.p, rk.wrk, 1, rk.own+1)
		if _, err := q.EnqueueNDRangeKernel(k, nil, nil); err != nil {
			return err
		}
		if err := q.Finish(p); err != nil {
			return err
		}
		rk.compTime += p.Now().Sub(t0)
		rk.p, rk.wrk = rk.wrk, rk.p

		t1 := p.Now()
		if err := rk.hostExchange(p, q, comm, rk.p, dirUp, dirDown); err != nil {
			return err
		}
		rk.commTime += p.Now().Sub(t1)
	}
	return nil
}

// stageOrder reports the per-parity schedule of Fig. 2 / Fig. 3: which half
// computes first and which direction's halo is exchanged in each stage.
func (rk *rank) stageOrder() (first, second direction, firstA bool) {
	if rk.ep.Rank()%2 == 0 {
		// Even ranks: compute A while exchanging B's halo, then compute
		// B while exchanging A's halo.
		return dirDown, dirUp, true
	}
	return dirUp, dirDown, false
}

// kernelRange returns the local plane range of part A or B.
func (rk *rank) kernelRange(partA bool) (from, to int) {
	if partA {
		return 1, 1 + rk.half
	}
	return 1 + rk.half, rk.own + 1
}

// runTwoStage is the hand-optimized two-queue schedule of Fig. 2: each
// stage overlaps one half-domain's kernel with the other half's halo
// exchange, but the host thread itself performs the exchange and therefore
// blocks — the limitation Fig. 4(b) illustrates. exchange performs one
// direction's exchange on the exchange queue, and prefix names the queues.
// HandOpt exchanges through host staging (hostExchange); GPUAware through
// GPU-aware MPI (gpuAwareExchange), which removes the staging inefficiency
// (the library picks the same optimized implementation the clMPI runtime
// would) but still serializes the two communication stages against the
// device — isolating the scheduling half of the paper's contribution from
// the transfer-selection half.
func (rk *rank) runTwoStage(p *sim.Proc, comm *mpi.Comm, iters int, prefix string,
	exchange func(p *sim.Proc, qx *cl.CommandQueue, comm *mpi.Comm, arr []float32, dir direction) error) error {
	qc := rk.ctx.NewQueue(fmt.Sprintf("%s.qc%d", prefix, rk.ep.Rank()))
	qx := rk.ctx.NewQueue(fmt.Sprintf("%s.qx%d", prefix, rk.ep.Rank()))
	firstDir, secondDir, firstA := rk.stageOrder()
	for it := 0; it < iters; it++ {
		rk.markIter(p, it)
		rk.gosa = 0
		// Stage 1: kernel over the first half ∥ host-driven exchange of
		// the other half's halo (on p, carrying last iteration's values).
		f1, t1 := rk.kernelRange(firstA)
		if _, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi1", rk.p, rk.wrk, f1, t1), nil, nil); err != nil {
			return err
		}
		if err := exchange(p, qx, comm, rk.p, firstDir); err != nil {
			return err
		}
		if err := qc.Finish(p); err != nil {
			return err
		}
		// Stage 2: kernel over the second half ∥ exchange of the first
		// half's freshly computed halo (on wrk).
		f2, t2 := rk.kernelRange(!firstA)
		if _, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi2", rk.p, rk.wrk, f2, t2), nil, nil); err != nil {
			return err
		}
		if err := exchange(p, qx, comm, rk.wrk, secondDir); err != nil {
			return err
		}
		if err := qc.Finish(p); err != nil {
			return err
		}
		rk.p, rk.wrk = rk.wrk, rk.p
	}
	return nil
}

// runCLMPI is the extension-based implementation of Fig. 6: the same
// dataflow as runTwoStage, but every operation — kernels, packs, sends,
// receives, unpacks — is an enqueued command whose ordering is enforced by
// events. The host thread enqueues the whole iteration and calls clFinish
// once (§IV-B).
func (rk *rank) runCLMPI(p *sim.Proc, comm *mpi.Comm, iters int) error {
	me := rk.ep.Rank()
	qc := rk.ctx.NewQueue(fmt.Sprintf("clmpi.qc%d", me))
	qs := rk.ctx.NewQueue(fmt.Sprintf("clmpi.qs%d", me))
	qr := rk.ctx.NewQueue(fmt.Sprintf("clmpi.qr%d", me))
	firstDir, secondDir, firstA := rk.stageOrder()
	pb := rk.size.planeBytes()

	for it := 0; it < iters; it++ {
		rk.markIter(p, it)
		rk.gosa = 0

		// First-stage exchange, on p (no dependencies: the planes carry
		// last iteration's values).
		var evUnpack1 *cl.Event
		if peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(firstDir); peer >= 0 {
			evPack, err := rk.enqueuePack(qs, rk.p, sendLi, sendBuf, nil)
			if err != nil {
				return err
			}
			if _, err := rk.rt.EnqueueSendBuffer(p, qs, sendBuf, false, 0, pb, peer, sendTag, comm, []*cl.Event{evPack}); err != nil {
				return err
			}
			evRecv, err := rk.rt.EnqueueRecvBuffer(p, qr, recvBuf, false, 0, pb, peer, recvTag, comm, nil)
			if err != nil {
				return err
			}
			if evUnpack1, err = rk.enqueueUnpack(qr, rk.p, ghostLi, recvBuf, []*cl.Event{evRecv}); err != nil {
				return err
			}
		}

		// First kernel: needs nothing from this iteration.
		fa, ta := rk.kernelRange(firstA)
		evK1, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi1", rk.p, rk.wrk, fa, ta), nil, nil)
		if err != nil {
			return err
		}

		// Second kernel: gated on the first-stage ghost update.
		var k2waits []*cl.Event
		if evUnpack1 != nil {
			k2waits = append(k2waits, evUnpack1)
		}
		fb, tb := rk.kernelRange(!firstA)
		if _, err := qc.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi2", rk.p, rk.wrk, fb, tb), nil, k2waits); err != nil {
			return err
		}

		// Second-stage exchange, on wrk: the outgoing plane is produced
		// by the first kernel, expressed as an event dependency — no
		// host blocking anywhere.
		if peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(secondDir); peer >= 0 {
			evPack, err := rk.enqueuePack(qs, rk.wrk, sendLi, sendBuf, []*cl.Event{evK1})
			if err != nil {
				return err
			}
			if _, err := rk.rt.EnqueueSendBuffer(p, qs, sendBuf, false, 0, pb, peer, sendTag, comm, []*cl.Event{evPack}); err != nil {
				return err
			}
			evRecv, err := rk.rt.EnqueueRecvBuffer(p, qr, recvBuf, false, 0, pb, peer, recvTag, comm, nil)
			if err != nil {
				return err
			}
			if _, err := rk.enqueueUnpack(qr, rk.wrk, ghostLi, recvBuf, []*cl.Event{evRecv}); err != nil {
				return err
			}
		}

		// The host thread's only synchronization: one flush per queue at
		// the end of the iteration (Fig. 6).
		if err := qc.Finish(p); err != nil {
			return err
		}
		if err := qs.Finish(p); err != nil {
			return err
		}
		if err := qr.Finish(p); err != nil {
			return err
		}
		// Optional checkpoint of the completed iteration (the §VI file
		// I/O commands); the disk write overlaps subsequent iterations.
		if err := rk.maybeCheckpoint(p, it, rk.wrk, nil); err != nil {
			return err
		}
		rk.p, rk.wrk = rk.wrk, rk.p
	}
	return rk.finishCheckpoints(p)
}

// gpuAwareExchange performs one direction's halo exchange through GPU-aware
// MPI (§II): the MPI layer stages the device buffer optimally inside, but
// the host thread must synchronize with the device before and after — the
// pack must be flushed before calling MPI (there is no event to hand over),
// and the host blocks in Waitall.
func (rk *rank) gpuAwareExchange(p *sim.Proc, qx *cl.CommandQueue, comm *mpi.Comm, arr []float32, dir direction) error {
	peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(dir)
	if peer < 0 {
		return nil
	}
	pb := rk.size.planeBytes()
	if _, err := rk.enqueuePack(qx, arr, sendLi, sendBuf, nil); err != nil {
		return err
	}
	// §II: "the host thread needs to wait for the kernel execution
	// completion in order to serialize the kernel execution and the MPI
	// communication" — here, the pack.
	if err := qx.Finish(p); err != nil {
		return err
	}
	sreq, err := rk.rt.IsendDeviceBuffer(p, sendBuf, 0, pb, peer, sendTag, comm)
	if err != nil {
		return err
	}
	rreq, err := rk.rt.IrecvDeviceBuffer(p, recvBuf, 0, pb, peer, recvTag, comm)
	if err != nil {
		return err
	}
	if err := mpi.Waitall(p, sreq, rreq); err != nil {
		return err
	}
	if _, err := rk.enqueueUnpack(qx, arr, ghostLi, recvBuf, nil); err != nil {
		return err
	}
	return qx.Finish(p)
}

// runCLMPIOutOfOrder expresses the Fig. 6 dataflow on a single out-of-order
// command queue per rank instead of three in-order queues: every kernel,
// pack, unpack, and communication command carries its dependencies as
// events and the runtime schedules whatever is eligible. Same DAG, same
// results, one queue — a composition of the extension with OpenCL's
// out-of-order execution mode that the in-order-only paper could not show.
func (rk *rank) runCLMPIOutOfOrder(p *sim.Proc, comm *mpi.Comm, iters int) error {
	me := rk.ep.Rank()
	q := rk.ctx.NewOutOfOrderQueue(fmt.Sprintf("clmpiooo.q%d", me))
	firstDir, secondDir, firstA := rk.stageOrder()
	pb := rk.size.planeBytes()

	// prevIter: the previous iteration's completion marker; both kernels
	// of an iteration read the arrays the previous iteration finalized, so
	// they wait for it explicitly (the in-order variants get this for free).
	var prevIter *cl.Event
	for it := 0; it < iters; it++ {
		rk.markIter(p, it)
		rk.gosa = 0
		var iterEvents []*cl.Event
		dep := func(evs ...*cl.Event) []*cl.Event {
			out := append([]*cl.Event(nil), evs...)
			if prevIter != nil {
				out = append(out, prevIter)
			}
			return out
		}

		// First-stage exchange on p.
		var evUnpack1 *cl.Event
		if peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(firstDir); peer >= 0 {
			evPack, err := rk.enqueuePack(q, rk.p, sendLi, sendBuf, dep())
			if err != nil {
				return err
			}
			evSend, err := rk.rt.EnqueueSendBuffer(p, q, sendBuf, false, 0, pb, peer, sendTag, comm, []*cl.Event{evPack})
			if err != nil {
				return err
			}
			evRecv, err := rk.rt.EnqueueRecvBuffer(p, q, recvBuf, false, 0, pb, peer, recvTag, comm, dep())
			if err != nil {
				return err
			}
			if evUnpack1, err = rk.enqueueUnpack(q, rk.p, ghostLi, recvBuf, []*cl.Event{evRecv}); err != nil {
				return err
			}
			iterEvents = append(iterEvents, evSend, evUnpack1)
		}

		fa, ta := rk.kernelRange(firstA)
		evK1, err := q.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi1", rk.p, rk.wrk, fa, ta), nil, dep())
		if err != nil {
			return err
		}
		k2waits := dep(evK1) // serialize the two kernels' gosa accumulation
		if evUnpack1 != nil {
			k2waits = append(k2waits, evUnpack1)
		}
		fb, tb := rk.kernelRange(!firstA)
		evK2, err := q.EnqueueNDRangeKernel(rk.jacobiKernel("jacobi2", rk.p, rk.wrk, fb, tb), nil, k2waits)
		if err != nil {
			return err
		}
		iterEvents = append(iterEvents, evK1, evK2)

		// Second-stage exchange on wrk.
		if peer, sendLi, ghostLi, sendTag, recvTag, sendBuf, recvBuf := rk.exchangeSpec(secondDir); peer >= 0 {
			evPack, err := rk.enqueuePack(q, rk.wrk, sendLi, sendBuf, []*cl.Event{evK1})
			if err != nil {
				return err
			}
			evSend, err := rk.rt.EnqueueSendBuffer(p, q, sendBuf, false, 0, pb, peer, sendTag, comm, []*cl.Event{evPack})
			if err != nil {
				return err
			}
			evRecv, err := rk.rt.EnqueueRecvBuffer(p, q, recvBuf, false, 0, pb, peer, recvTag, comm, dep())
			if err != nil {
				return err
			}
			evUnpack2, err := rk.enqueueUnpack(q, rk.wrk, ghostLi, recvBuf, []*cl.Event{evRecv})
			if err != nil {
				return err
			}
			iterEvents = append(iterEvents, evSend, evUnpack2)
		}

		// One marker per iteration stands in for the swap barrier; the
		// host still only blocks once, at Finish below.
		mev, err := q.Enqueue("iter-complete", iterEvents, func(*sim.Proc) error { return nil })
		if err != nil {
			return err
		}
		prevIter = mev
		if err := q.Finish(p); err != nil {
			return err
		}
		rk.p, rk.wrk = rk.wrk, rk.p
	}
	return nil
}

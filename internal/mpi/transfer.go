package mpi

import (
	"fmt"
	"time"

	"repro/internal/bytepool"
	"repro/internal/sim"
)

// secondsToDur converts floating-point seconds to a duration.
func secondsToDur(s float64) time.Duration { return time.Duration(s * 1e9) }

// checkArgs validates a destination rank and user tag.
func (ep *Endpoint) checkArgs(dest, tag int) error {
	if dest < 0 || dest >= ep.world.size {
		return fmt.Errorf("%w: destination %d of %d", ErrRankRange, dest, ep.world.size)
	}
	if tag < 0 {
		return fmt.Errorf("%w: tag %d", ErrTagNegative, tag)
	}
	return nil
}

// chargeWire accounts one NIC occupancy [start, end) on each link, in
// order, as two differently-classed legs: the per-message software overhead
// ov first, then wire serialization of n bytes.
func chargeWire(pname string, n int64, start, end sim.Time, ov time.Duration, links ...*sim.Link) {
	mid := start.Add(ov)
	for _, l := range links {
		l.ChargeTagged("mpi.sw", pname, 0, start, mid)
		l.ChargeTagged("wire", pname, n, mid, end)
	}
}

// wireTransferProc charges n bytes across the fabric from this rank to dest:
// the sender's transmit path and the receiver's receive path are held
// concurrently for the serialization time (cut-through), preceded by the
// per-message software overhead. It returns when the last byte has left.
// The resident transport daemons of a partitioned world (partition.go) call
// it with a synthetic per-message charge name, formatted only when the
// links are observed; wireXfer is the same sequence as a step process.
func (ep *Endpoint) wireTransferProc(p *sim.Proc, dest int, n int64, pname string) {
	w := ep.world
	tx := w.Node(ep.rank).TX
	rx := w.Node(dest).RX
	ov := w.clus.Sys.NIC.MsgOverhead
	d := ov + tx.SerializationTime(n)
	// A switch path is taken first (FIFO), then the endpoints; the strict
	// resource ordering (backplane → tx → rx) keeps the model cycle-free.
	if bp := w.clus.Backplane; bp != nil {
		bp.Acquire(p, 1)
		defer bp.Release(p, 1)
	}
	tx.Lock(p)
	rx.Lock(p)
	start := p.Now()
	if d > 0 {
		p.Sleep(d)
	}
	chargeWire(pname, n, start, p.Now(), ov, tx, rx)
	rx.Unlock(p)
	tx.Unlock(p)
}

// wireXfer is one message's NIC wire transfer in the serial transport, run
// as a coroutine-free step process (sim.Engine.SpawnStep): the eager body
// of a send, or the data phase of a matched rendezvous. It performs
// wireTransferProc's sequence — backplane, then tx, then rx, a sleep for
// the overhead plus serialization, the charges, then rx, tx and backplane
// released — and then runs its tail. It carries its own process handle, so
// a transfer costs one allocation.
type wireXfer struct {
	proc  sim.Proc
	w     *World
	msg   *message
	state uint8
	start sim.Time // the occupancy's first instant, once tx and rx are held
	// Rendezvous only: the matched receive (not recycled on this path) and
	// its queue depths sampled at match time. rop is nil for eager.
	rop    *recvOp
	pd, ud int
}

// wireXfer states: each names what the next step call must do first.
const (
	xferBackplane uint8 = iota
	xferTx
	xferRx
	xferWire
	xferDone
)

// StepName is the process name, formatted only if someone observes it.
func (x *wireXfer) StepName() string {
	kind := "eager"
	if x.rop != nil {
		kind = "rndv"
	}
	return fmt.Sprintf("%s %d->%d", kind, x.msg.src, x.msg.dst)
}

// Step advances the transfer until it parks or finishes.
func (x *wireXfer) Step(p *sim.Proc) {
	w, msg := x.w, x.msg
	bp := w.clus.Backplane
	tx, rx := w.Node(msg.src).TX, w.Node(msg.dst).RX
	ov := w.clus.Sys.NIC.MsgOverhead
	switch x.state {
	case xferBackplane:
		x.state = xferTx
		if bp != nil && !bp.AcquireStep(p, 1) {
			return
		}
		fallthrough
	case xferTx:
		x.state = xferRx
		if !tx.LockStep(p) {
			return
		}
		fallthrough
	case xferRx:
		x.state = xferWire
		if !rx.LockStep(p) {
			return
		}
		fallthrough
	case xferWire:
		x.start = p.Now()
		x.state = xferDone
		if d := ov + tx.SerializationTime(int64(msg.size)); d > 0 && !p.SleepStep(d) {
			return
		}
	}
	pname := ""
	if tx.Observed() || rx.Observed() {
		pname = p.Name()
	}
	chargeWire(pname, int64(msg.size), x.start, p.Now(), ov, tx, rx)
	rx.Unlock(p)
	tx.Unlock(p)
	if bp != nil {
		bp.Release(p, 1)
	}
	if x.rop != nil {
		x.rndvDone(p.Now())
		return
	}
	w.observe(MsgEvent{Kind: MsgWireDone, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, Bytes: msg.size, Eager: true, At: p.Now()})
	// The NIC has the data: the sender's buffer is free.
	msg.req.complete(Status{}, nil)
	msg.arrived.FireAfter(w.clus.Sys.NIC.WireLatency, nil)
}

// rndvDone is a rendezvous data phase's tail, once the last byte left at
// instant now: the payload lands, the sender completes, and the receive
// completes one wire latency later.
func (x *wireXfer) rndvDone(now sim.Time) {
	w, msg, rop := x.w, x.msg, x.rop
	w.observe(MsgEvent{Kind: MsgWireDone, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, RecvSeq: rop.seq, Bytes: msg.size, At: now,
		PostedDepth: x.pd, UnexpectedDepth: x.ud})
	bytepool.Copy(rop.buf, msg.sendBuf)
	// Sender's buffer is reusable once the NIC is done with it.
	msg.req.complete(Status{}, nil)
	lat := w.clus.Sys.NIC.WireLatency
	rop.req.completeAfter(lat, Status{Source: msg.src, Tag: msg.tag, Count: msg.size}, nil)
	w.observe(MsgEvent{Kind: MsgDelivered, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, RecvSeq: rop.seq, Bytes: msg.size, Eager: msg.eager, At: now.Add(lat),
		PostedDepth: x.pd, UnexpectedDepth: x.ud})
}

// deliver finalizes a matched (message, receive) pair.
func (c *Comm) deliver(msg *message, rop *recvOp) {
	w := c.world
	now := w.eng.Now()
	// Queue depths are sampled once, at match time (both sides have already
	// left the queues); the delivered event reuses them so its payload does
	// not depend on unrelated traffic between match and delivery.
	pd, ud := c.match.depths(msg.dst)
	// Snapshot the receive sequence: the delivered closure may run after the
	// recvOp has been recycled through the world's pool.
	rseq := rop.seq
	delivered := func(at sim.Time) MsgEvent {
		return MsgEvent{Kind: MsgDelivered, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
			Seq: msg.seq, RecvSeq: rseq, Bytes: msg.size, Eager: msg.eager, At: at,
			PostedDepth: pd, UnexpectedDepth: ud}
	}
	w.observe(MsgEvent{Kind: MsgMatched, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, RecvSeq: rseq, Bytes: msg.size, Eager: msg.eager, At: now,
		PostedDepth: pd, UnexpectedDepth: ud})
	st := Status{Source: msg.src, Tag: msg.tag, Count: msg.size}
	if msg.size > rop.buf.Len() {
		// Truncation is the receiver's error; the sender completes
		// normally (its data was accepted by the transport).
		err := fmt.Errorf("%w: %d bytes into %d-byte buffer", ErrTruncate, msg.size, rop.buf.Len())
		switch {
		case msg.xRndv:
			// Cross-partition rendezvous: grant a negative clear-to-send so
			// the remote sender completes without a data phase — the same
			// rule as the serial rendezvous truncation below.
			rop.req.complete(st, err)
			w.part.ctsBack(msg, false, 0)
		case msg.eager:
			rop.req.complete(st, err)
		default:
			msg.req.complete(Status{}, nil)
			rop.req.complete(st, err)
		}
		// Nothing will read the captured copy: recycle it now.
		bytepool.Free(msg.payload)
		msg.payload = bytepool.Seg{}
		w.observe(delivered(now))
		if msg.xArrived || msg.xRndv {
			w.putMsg(msg)
		}
		w.putRop(rop)
		return
	}
	if msg.xArrived {
		// Cross-partition eager: the payload arrived with the injected
		// envelope, so delivery is immediate (the injection instant is never
		// later than the match instant).
		bytepool.Copy(rop.buf, msg.payload)
		bytepool.Free(msg.payload)
		msg.payload = bytepool.Seg{}
		rop.req.complete(st, nil)
		w.observe(delivered(now))
		w.putRop(rop)
		w.putMsg(msg)
		return
	}
	if msg.xRndv {
		// Cross-partition rendezvous: record where the data phase must land,
		// then grant the remote sender its clear-to-send. Delivery happens
		// when the data event arrives (partition.go completeData).
		w.part.awaitData(msg, rop, st, pd, ud)
		w.part.ctsBack(msg, true, rseq)
		w.putRop(rop)
		w.putMsg(msg)
		return
	}
	if msg.eager {
		// Data travels independently of matching; the receive completes
		// when the payload has arrived (it may already have).
		buf := rop.buf
		req := rop.req
		if msg.direct {
			// Intra-node copy elision: matching is synchronous with the
			// send, so the sender's buffer still holds the payload — fill
			// the receiver-owned buffer directly, skipping the staged copy.
			bytepool.Copy(buf, msg.sendBuf)
			msg.sendBuf = bytepool.Seg{}
		}
		msg.arrived.OnFire(func(at sim.Time, _ any) {
			// A direct delivery has no payload; copying and freeing the
			// empty segment is a no-op.
			bytepool.Copy(buf, msg.payload)
			bytepool.Free(msg.payload)
			msg.payload = bytepool.Seg{}
			req.status = st
			if at < now {
				// Payload beat the receive: delivery is at match time.
				at = now
			}
			w.observe(delivered(at))
		})
		msg.arrived.Chain(req.Done())
		// The receive op's buffer and request now live in locals and the
		// closure above; the op itself is done.
		w.putRop(rop)
		return
	}
	if msg.src == msg.dst {
		// Local rendezvous (synchronous self-send): a memory copy.
		d := localOverhead + secondsToDur(float64(msg.size)/w.Node(msg.src).Sys.CPU.MemBW)
		bytepool.Copy(rop.buf, msg.sendBuf)
		msg.req.completeAfter(d, Status{}, nil)
		rop.req.completeAfter(d, st, nil)
		w.observe(delivered(now.Add(d)))
		return
	}
	// Rendezvous: run the wire transfer now that both sides exist.
	x := &wireXfer{w: w, msg: msg, rop: rop, pd: pd, ud: ud}
	w.eng.SpawnStep(x, &x.proc)
}

// Send is the blocking send, like MPI_Send: it returns when the send buffer
// may be reused (eager: NIC accepted; rendezvous: transfer done).
func (ep *Endpoint) Send(p *sim.Proc, buf []byte, dest, tag int, dtype Datatype, comm *Comm) error {
	req, err := ep.Isend(p, buf, dest, tag, dtype, comm)
	if err != nil {
		return err
	}
	_, err = req.Wait(p)
	return err
}

// Recv is the blocking receive, like MPI_Recv.
func (ep *Endpoint) Recv(p *sim.Proc, buf []byte, src, tag int, dtype Datatype, comm *Comm) (Status, error) {
	req, err := ep.Irecv(p, buf, src, tag, dtype, comm)
	if err != nil {
		return Status{}, err
	}
	return req.Wait(p)
}

// Sendrecv performs a combined send and receive without deadlocking on
// cyclic exchange patterns, like MPI_Sendrecv — the primitive Figure 1 of
// the paper builds its halo exchange on.
func (ep *Endpoint) Sendrecv(p *sim.Proc, sendBuf []byte, dest, sendTag int, recvBuf []byte, src, recvTag int, comm *Comm) (Status, error) {
	sreq, err := ep.Isend(p, sendBuf, dest, sendTag, Bytes, comm)
	if err != nil {
		return Status{}, err
	}
	rreq, err := ep.Irecv(p, recvBuf, src, recvTag, Bytes, comm)
	if err != nil {
		return Status{}, err
	}
	if _, err := sreq.Wait(p); err != nil {
		return Status{}, err
	}
	return rreq.Wait(p)
}

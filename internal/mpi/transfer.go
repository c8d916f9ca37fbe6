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

// chargeWire accounts one NIC occupancy [start, end) on link l as two
// differently-classed legs: the per-message software overhead ov first,
// then wire serialization of n bytes.
func chargeWire(l *sim.Link, pname string, n int64, start, end sim.Time, ov time.Duration) {
	mid := start.Add(ov)
	l.Charge("mpi.sw", pname, 0, start, mid)
	l.Charge("wire", pname, n, mid, end)
}

// wireXfer is the transport's one NIC occupancy, run as a coroutine-free
// step process (sim.Engine.SpawnStep) in both engines. A local transfer —
// the eager body of a send or the data phase of a matched rendezvous, on
// the serial engine or inside one shard — takes the backplane, then the
// sender's tx path, then the receiver's rx path, holds them together for
// the per-message overhead plus serialization (cut-through), charges,
// releases rx, tx and backplane, and runs its message's tail. A cross-shard
// message runs two legs of it in turn: a transmit leg holding only tx on
// the source shard, then a receive leg holding only rx on the target shard
// (partition.go). Each leg queues per message on the links, so every link
// is a FIFO of messages in both engines. The state, its Proc included,
// comes from the world's pool when the occupancy is spawned and goes back
// when it ends, so a message carries none of it and a transfer allocates
// nothing in steady state.
type wireXfer struct {
	proc  sim.Proc
	w     *World   // the world the occupancy runs in
	msg   *message // a local transfer's message; nil on a cross leg
	xs    *xsend   // a cross leg's send; nil on a local transfer
	start sim.Time // the occupancy's first instant, once the links are held
	leg   uint8    // legLocal, legTx or legRx
	state uint8
}

// wireXfer legs.
const (
	legLocal uint8 = iota // backplane, tx and rx held together
	legTx                 // a cross message's transmit leg, on the source shard
	legRx                 // its receive leg, on the target shard
)

// wireXfer states: each names what the next step call must do first.
const (
	xferBackplane uint8 = iota
	xferTx
	xferRx
	xferWire
	xferDone
)

// spawnXfer starts one occupancy as leg on w's engine: the local transfer
// of msg, or a leg of the cross send xs.
func (w *World) spawnXfer(leg uint8, msg *message, xs *xsend) {
	x := w.xfers.Get()
	x.w, x.leg, x.msg, x.xs = w, leg, msg, xs
	w.eng.SpawnStep(x, &x.proc)
}

// ends reports the transfer's source and destination ranks and the bytes
// it puts on the wire (none for a rendezvous request-to-send).
func (x *wireXfer) ends() (src, dst int, n int64) {
	if m := x.msg; m != nil {
		return m.src, m.dst, int64(m.size)
	}
	if x.xs.kind == xRTS {
		return x.xs.src, x.xs.dst, 0
	}
	return x.xs.src, x.xs.dst, int64(x.xs.size)
}

// StepName is the process name, formatted only if someone observes it.
func (x *wireXfer) StepName() string {
	src, dst, _ := x.ends()
	kind := "eager"
	if (x.msg != nil && !x.msg.eager) || (x.xs != nil && x.xs.kind != xEager) {
		kind = "rndv"
	}
	return fmt.Sprintf("%s %d->%d", kind, src, dst)
}

// Step advances the occupancy until it parks or finishes.
func (x *wireXfer) Step(p *sim.Proc) {
	w := x.w
	src, dst, n := x.ends()
	var bp *sim.Semaphore
	var tx, rx *sim.Link
	if x.leg == legLocal {
		bp = w.clus.Backplane
	}
	if x.leg != legRx {
		tx = w.Node(src).TX
	}
	if x.leg != legTx {
		rx = w.Node(dst).RX
	}
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
		if tx != nil && !tx.LockStep(p) {
			return
		}
		fallthrough
	case xferRx:
		x.state = xferWire
		if rx != nil && !rx.LockStep(p) {
			return
		}
		fallthrough
	case xferWire:
		x.start = p.Now()
		x.state = xferDone
		l := tx
		if l == nil {
			l = rx
		}
		if d := ov + l.SerializationTime(n); d > 0 && !p.SleepStep(d) {
			return
		}
	}
	now := p.Now()
	pname := ""
	if (tx != nil && tx.Observed()) || (rx != nil && rx.Observed()) {
		pname = p.Name()
	}
	if tx != nil {
		chargeWire(tx, pname, n, x.start, now, ov)
	}
	if rx != nil {
		chargeWire(rx, pname, n, x.start, now, ov)
		rx.Unlock(p)
	}
	if tx != nil {
		tx.Unlock(p)
	}
	if bp != nil {
		bp.Release(p, 1)
	}
	switch {
	case x.leg == legTx:
		x.xs.txDone(w, now)
	case x.leg == legRx:
		x.xs.rxDone(w, now)
	case x.msg.eager:
		x.msg.eagerDone(now)
	default:
		x.msg.rndvDone(now)
	}
	w.endXfer(x)
}

// eagerDone is a local eager transfer's tail, once the last byte left at
// instant now: the sender completes, and the payload arrives one wire
// latency later.
func (msg *message) eagerDone(now sim.Time) {
	w := msg.w
	w.observe(MsgEvent{Kind: MsgWireDone, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, Bytes: msg.size, Eager: true, At: now})
	// The NIC has the data: the sender's buffer is free.
	msg.req.complete(Status{}, nil)
	w.eng.AfterCall(w.clus.Sys.NIC.WireLatency, eagerLanded, msg)
}

// rndvDone is a local rendezvous data phase's tail, once the last byte left
// at instant now: the payload lands, the sender completes, and the receive
// completes one wire latency later.
func (msg *message) rndvDone(now sim.Time) {
	w, rop := msg.w, msg.rop
	w.observe(MsgEvent{Kind: MsgWireDone, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, RecvSeq: rop.seq, Bytes: msg.size, At: now,
		PostedDepth: int(msg.pd), UnexpectedDepth: int(msg.ud)})
	bytepool.Copy(rop.buf, msg.sendBuf)
	// Sender's buffer is reusable once the NIC is done with it.
	msg.req.complete(Status{}, nil)
	lat := w.clus.Sys.NIC.WireLatency
	rop.req.completeAfter(lat, msg.status(), nil)
	w.observe(msg.delivered(now.Add(lat)))
}

// startWire runs msg's local wire transfer.
func (msg *message) startWire() { msg.w.spawnXfer(legLocal, msg, nil) }

// status is the receive status of a matched message.
func (msg *message) status() Status {
	return Status{Source: msg.src, Tag: msg.tag, Count: msg.size}
}

// delivered is the MsgDelivered event of a matched message landing at
// instant at, with the queue depths sampled at match time, so its payload
// does not depend on unrelated traffic between match and delivery.
func (msg *message) delivered(at sim.Time) MsgEvent {
	return MsgEvent{Kind: MsgDelivered, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, RecvSeq: msg.rop.seq, Bytes: msg.size, Eager: msg.eager, At: at,
		PostedDepth: int(msg.pd), UnexpectedDepth: int(msg.ud)}
}

// deliver finalizes a matched (message, receive) pair.
func (c *Comm) deliver(msg *message, rop *recvOp) {
	w := c.world
	now := w.eng.Now()
	// Queue depths are sampled once, at match time (both sides have already
	// left the queues).
	pd, ud := c.match.depths(msg.dst)
	msg.rop, msg.pd, msg.ud = rop, int32(pd), int32(ud)
	w.observe(MsgEvent{Kind: MsgMatched, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, RecvSeq: rop.seq, Bytes: msg.size, Eager: msg.eager, At: now,
		PostedDepth: pd, UnexpectedDepth: ud})
	st := msg.status()
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
		w.observe(msg.delivered(now))
		if msg.xArrived || msg.xRndv {
			w.putMsg(msg)
		}
		// An eager payload still in flight has no receive left to fill.
		msg.rop = nil
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
		w.observe(msg.delivered(now))
		w.putMsg(msg)
		return
	}
	if msg.xRndv {
		// Cross-partition rendezvous: park the matched message until its
		// data phase arrives (partition.go completeData), then grant the
		// remote sender its clear-to-send.
		w.part.await[msg.seq] = msg
		w.part.ctsBack(msg, true, rop.seq)
		return
	}
	if msg.eager {
		// Data travels independently of matching; the receive completes
		// when the payload has arrived (it may already have).
		if msg.direct {
			// Intra-node copy elision: matching is synchronous with the
			// send, so the sender's buffer still holds the payload — fill
			// the receiver-owned buffer directly, skipping the staged copy.
			bytepool.Copy(rop.buf, msg.sendBuf)
			msg.sendBuf = bytepool.Seg{}
		}
		if msg.landed {
			msg.land()
		}
		return
	}
	if msg.src == msg.dst {
		// Local rendezvous (synchronous self-send): a memory copy.
		d := localOverhead + secondsToDur(float64(msg.size)/w.Node(msg.src).Sys.CPU.MemBW)
		bytepool.Copy(rop.buf, msg.sendBuf)
		msg.req.completeAfter(d, Status{}, nil)
		rop.req.completeAfter(d, st, nil)
		w.observe(msg.delivered(now.Add(d)))
		return
	}
	// Rendezvous: run the wire transfer now that both sides exist.
	msg.startWire()
}

// eagerLanded marks an eager payload as arrived at the receiver and, if a
// receive has already matched the message, delivers it. It runs from a
// timer with the message as its argument, so arrival costs no trigger and
// no closure.
func eagerLanded(arg any) {
	msg := arg.(*message)
	msg.landed = true
	if msg.rop != nil {
		msg.land()
	}
}

// land completes the matched receive of an eager message whose payload is
// at the receiver, at the engine's current instant: the landing if the
// receive was first, the match if the payload was.
func (msg *message) land() {
	rop := msg.rop
	// A direct delivery has no payload; copying and freeing the empty
	// segment is a no-op.
	bytepool.Copy(rop.buf, msg.payload)
	bytepool.Free(msg.payload)
	msg.payload = bytepool.Seg{}
	msg.w.observe(msg.delivered(msg.w.eng.Now()))
	rop.req.complete(msg.status(), nil)
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

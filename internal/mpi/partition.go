package mpi

import (
	"errors"
	"fmt"

	"repro/internal/bytepool"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Partitioned worlds: one MPI job split across the shards of a
// sim.PartitionedEngine. Each shard owns a contiguous rank range and models
// only its own nodes (cluster.NewPartial); intra-shard traffic takes the
// ordinary serial code paths, while messages whose destination lives on
// another shard flow through the cross-partition transport below.
//
// The cross protocol mirrors the serial one phase for phase:
//
//	eager:  capture payload → tx charges on the source shard → cross event
//	        at wire-end + latency → rx charges on the target shard → inject
//	        the envelope+payload into the destination's matcher (xArrived).
//	rndv:   RTS (header only) → inject envelope (xRndv) → on match the
//	        receiver grants clear-to-send (a pure-latency cross event; the
//	        control message's wire occupancy is deliberately not modelled) →
//	        the sender runs the data phase against the live send buffer →
//	        cross data event → rx charges → receive completes.
//
// Both directions honour the conservative channel protocol: every cross
// event lands at least one wire latency after the instant it was produced,
// which is at least the lookahead-matrix entry for its shard pair
// (cluster.LookaheadMatrix never exceeds the wire latency), so each shard's
// per-channel horizon admits every event before it can matter.
//
// Divergences from the serial model, by construction: the sender's tx and the
// receiver's rx occupancy are charged one latency apart instead of
// concurrently (cut-through across shards would need shared clocks), the
// destination's matcher-queue depths are unknown at the source (SendPosted
// events report zero depths), and cross traffic is restricted to
// MPI_COMM_WORLD. The parallel-vs-serial equivalence guarantee is unaffected:
// both executions of a partitioned world run this same transport.

// PartWorld is a partitioned MPI job: K shard worlds over one
// sim.PartitionedEngine, presenting the same surface as a serial World where
// it matters (rank launch, endpoints, high-water queries).
type PartWorld struct {
	pe     *sim.PartitionedEngine
	sys    cluster.System
	size   int
	shards []*World
}

// NewPartWorld builds an n-rank world partitioned across every shard of pe,
// with rank ranges balanced to within one. Each shard instantiates only its
// own nodes. Requires n >= parts.
func NewPartWorld(pe *sim.PartitionedEngine, sys cluster.System, n int) *PartWorld {
	k := pe.Parts()
	if n < k {
		panic(fmt.Sprintf("mpi: %d ranks cannot span %d partitions", n, k))
	}
	pw := &PartWorld{pe: pe, sys: sys, size: n, shards: make([]*World, k)}
	for i := 0; i < k; i++ {
		lo, hi := cluster.PartRange(n, k, i)
		c := cluster.NewPartial(pe.Shard(i), sys, n, lo, hi)
		w := NewWorld(c)
		w.part = &partShard{
			pw: pw, idx: i, lo: lo, hi: hi, w: w,
			txq:   make([]*sim.Queue[txJob], hi-lo),
			rxq:   make([]*sim.Queue[rxJob], hi-lo),
			eps:   make([]*Endpoint, hi-lo),
			pend:  make(map[uint64]*xsend),
			await: make(map[uint64]*xawait),
		}
		pw.shards[i] = w
	}
	return pw
}

// Size reports the number of ranks.
func (pw *PartWorld) Size() int { return pw.size }

// Parts reports the number of partitions.
func (pw *PartWorld) Parts() int { return len(pw.shards) }

// Engine returns the coordinating partitioned engine.
func (pw *PartWorld) Engine() *sim.PartitionedEngine { return pw.pe }

// Shard returns partition i's world.
func (pw *PartWorld) Shard(i int) *World { return pw.shards[i] }

// owner maps a rank to the index of the partition hosting it — the inverse
// of the balanced cluster.PartRange split.
func (pw *PartWorld) owner(rank int) int {
	return ((rank+1)*len(pw.shards) - 1) / pw.size
}

// Endpoint returns rank's handle on its owning shard.
func (pw *PartWorld) Endpoint(rank int) *Endpoint {
	if rank < 0 || rank >= pw.size {
		panic(fmt.Sprintf("mpi: endpoint rank %d out of range [0,%d)", rank, pw.size))
	}
	return pw.shards[pw.owner(rank)].part.endpoint(rank)
}

// LaunchRanks spawns every rank's host process on its owning shard.
func (pw *PartWorld) LaunchRanks(name string, body func(p *sim.Proc, ep *Endpoint)) {
	for _, w := range pw.shards {
		w.LaunchRanks(name, body)
	}
}

// AttachObs wires a host-time observability hook set into the underlying
// engine and labels every shard with its rank range, so flight-recorder
// dumps and -obs-report tables speak in ranks rather than shard indexes.
// Must be called before Run.
func (pw *PartWorld) AttachObs(p *obs.PDES) {
	pw.pe.SetObs(p)
	if p == nil {
		return
	}
	for i, w := range pw.shards {
		p.SetShardLabel(i, fmt.Sprintf("ranks [%d,%d)", w.part.lo, w.part.hi))
	}
}

// Run drives the partitioned simulation to completion on up to workers host
// cores (see sim.PartitionedEngine.Run). On a conservative deadlock, the
// MPI layer annotates the flight recorder with its own view of the wreck —
// which shards still hold cross-partition rendezvous in flight — before the
// error propagates.
func (pw *PartWorld) Run(workers int) error {
	err := pw.pe.Run(workers)
	var derr *sim.DeadlockError
	if errors.As(err, &derr) {
		if o := pw.pe.Obs(); o != nil {
			// The engine is fully stopped: the shard maps are quiescent.
			rec := o.Recorder()
			for i, w := range pw.shards {
				ps := w.part
				if len(ps.pend) > 0 || len(ps.await) > 0 {
					rec.Note("shard%d (ranks [%d,%d)): %d cross rendezvous awaiting clear-to-send, %d awaiting data phase",
						i, ps.lo, ps.hi, len(ps.pend), len(ps.await))
				}
			}
		}
	}
	return err
}

// MatchQueueHighWater reports rank's peak matcher-queue depths, delegating
// to the owning shard's world communicator.
func (pw *PartWorld) MatchQueueHighWater(rank int) (postedRecvs, unexpected int) {
	return pw.shards[pw.owner(rank)].world.MatchQueueHighWater(rank)
}

// SetMsgObserver installs one protocol observer per shard via mk, which
// receives the shard index — observers see only their own shard's events, so
// each can record lock-free; merge afterwards.
func (pw *PartWorld) SetMsgObserver(mk func(shard int) MsgObserver) {
	for i, w := range pw.shards {
		w.SetMsgObserver(mk(i))
	}
}

// partShard is one shard's view of the partitioned job: its rank range, its
// world, the resident per-node NIC daemons, and the bookkeeping for in-flight
// cross-partition rendezvous.
type partShard struct {
	pw     *PartWorld
	idx    int
	lo, hi int
	w      *World

	// Per local node (indexed rank-lo): transmit/receive work queues, each
	// drained by one resident daemon spawned on first use, and a cache of
	// endpoint handles so hot paths do not re-allocate them.
	txq []*sim.Queue[txJob]
	rxq []*sim.Queue[rxJob]
	eps []*Endpoint

	// pend: cross rendezvous sends awaiting the receiver's clear-to-send,
	// by message sequence. await: matched cross rendezvous receives awaiting
	// the data phase. Both are touched only from this shard's processes.
	pend  map[uint64]*xsend
	await map[uint64]*xawait
}

// local reports whether rank lives on this shard.
func (ps *partShard) local(rank int) bool { return rank >= ps.lo && rank < ps.hi }

// parts reports the partition count.
func (ps *partShard) parts() int { return len(ps.pw.shards) }

// multi reports whether more than one partition exists — the gate for every
// behavioural divergence from the serial code paths, so a 1-partition world
// is bit-for-bit the serial engine.
func (ps *partShard) multi() bool { return len(ps.pw.shards) > 1 }

// endpoint returns the cached handle for a local rank.
func (ps *partShard) endpoint(rank int) *Endpoint {
	i := rank - ps.lo
	if ps.eps[i] == nil {
		ps.eps[i] = &Endpoint{world: ps.w, rank: rank}
	}
	return ps.eps[i]
}

// txJob is one unit of work for a node's transmit daemon.
type txJob struct {
	kind uint8
	msg  *message // txEagerLocal: the intra-shard eager message
	x    *xsend   // cross kinds: the pending cross send
}

const (
	txEagerLocal uint8 = iota // intra-shard eager wire transfer
	txXEager                  // cross eager: payload already captured
	txRTS                     // cross rendezvous request-to-send (header)
	txData                    // cross rendezvous data phase (CTS granted)
)

// rxJob is one arriving cross-partition transmission, charged against the
// destination node's receive path by its receive daemon.
type rxJob struct {
	kind          uint8
	src, dst, tag int
	seq           uint64
	size          int
	wire          int64        // bytes occupying the rx path (0 for headers)
	payload       bytepool.Seg // rxEager / rxData: a bytepool.Capture copy
	recvSeq       uint64       // rxData: the matched receive's sequence
}

const (
	rxEager uint8 = iota
	rxRTS
	rxData
)

// xsend is a sender-side cross-partition message in flight. Unlike message
// it never enters a matcher; it lives on the source shard only. Not pooled:
// the final reference is dropped on the target shard's side of a cross
// event, where a recycle would race the source shard's pool.
type xsend struct {
	src, dst, tag int
	seq           uint64
	size          int
	payload       bytepool.Seg // eager: captured copy
	sendBuf       bytepool.Seg // rendezvous: live buffer until the data phase
	req           *Request
	recvSeq       uint64 // set by the clear-to-send grant
}

// xawait is a receiver-side matched cross rendezvous waiting for its data
// phase. The matcher's message and recvOp are recycled at match time; this
// carries the few fields delivery needs.
type xawait struct {
	src, dst, tag int
	seq           uint64
	size          int
	buf           bytepool.Seg
	req           *Request
	st            Status
	recvSeq       uint64
	pd, ud        int
}

// crossSend posts a send whose destination lives on another partition.
// Called in the sending rank's process context.
func (ps *partShard) crossSend(ep *Endpoint, buf bytepool.Seg, dest, tag int, comm *Comm, ssend bool) *Request {
	w := ps.w
	if comm != w.world {
		panic("mpi: cross-partition traffic is only supported on MPI_COMM_WORLD")
	}
	x := &xsend{src: ep.rank, dst: dest, tag: tag, seq: w.nextSeq(), size: buf.Len()}
	kind := reqIsend
	if ssend {
		kind = reqSsend
	}
	x.req = newReqCoded(w.eng, kind, ep.rank, dest, tag)
	x.req.seq = x.seq
	eager := !ssend && x.size <= EagerThreshold
	if eager {
		x.payload = bytepool.Capture(buf)
	} else {
		x.sendBuf = buf
		ps.pend[x.seq] = x
	}
	if !ssend {
		// The destination's matcher-queue depths live on another shard;
		// cross SendPosted events report zero depths by construction.
		w.observe(MsgEvent{Kind: MsgSendPosted, Src: x.src, Dst: x.dst, Tag: x.tag,
			Seq: x.seq, Bytes: x.size, Eager: eager, At: w.eng.Now()})
	}
	if eager {
		ps.enqueueTx(ep.rank, txJob{kind: txXEager, x: x})
	} else {
		ps.enqueueTx(ep.rank, txJob{kind: txRTS, x: x})
	}
	return x.req
}

// enqueueTx hands a job to rank's transmit daemon, spawning it on first use.
func (ps *partShard) enqueueTx(rank int, job txJob) {
	i := rank - ps.lo
	q := ps.txq[i]
	if q == nil {
		name := fmt.Sprintf("nic.tx%d", rank)
		q = sim.NewQueue[txJob](ps.w.eng, name)
		ps.txq[i] = q
		ep := ps.endpoint(rank)
		ps.w.eng.SpawnDaemon(name, func(p *sim.Proc) { ps.txLoop(p, ep, q) })
	}
	q.Put(job)
}

// enqueueRx hands an arrival to rank's receive daemon, spawning it on first
// use. Called from the shard's cross-delivery daemon.
func (ps *partShard) enqueueRx(rank int, job rxJob) {
	i := rank - ps.lo
	q := ps.rxq[i]
	if q == nil {
		name := fmt.Sprintf("nic.rx%d", rank)
		q = sim.NewQueue[rxJob](ps.w.eng, name)
		ps.rxq[i] = q
		ps.w.eng.SpawnDaemon(name, func(p *sim.Proc) { ps.rxLoop(p, rank, q) })
	}
	q.Put(job)
}

// txLoop drains one node's transmit queue. Jobs run one at a time in post
// order, so a job waits for the previous one to release the links before
// it queues on the backplane or a receiver's rx path. The serial engine's
// per-message wireXfer step processes all queue at once; the two agree
// without contention but not under it.
func (ps *partShard) txLoop(p *sim.Proc, ep *Endpoint, q *sim.Queue[txJob]) {
	for {
		job, ok := q.Get(p)
		if !ok {
			return
		}
		switch job.kind {
		case txEagerLocal:
			ps.runEagerLocal(p, ep, job.msg)
		case txXEager:
			ps.runXEager(p, job.x)
		case txRTS:
			ps.runRTS(p, job.x)
		case txData:
			ps.runData(p, job.x)
		}
	}
}

// runEagerLocal performs an intra-shard eager wire transfer: wireXfer's
// sequence and tail run in the node's tx daemon, with the charge name
// synthesized only when someone is watching the links.
func (ps *partShard) runEagerLocal(p *sim.Proc, ep *Endpoint, msg *message) {
	w := ps.w
	pname := ""
	if w.Node(msg.src).TX.Observed() || w.Node(msg.dst).RX.Observed() {
		pname = fmt.Sprintf("eager %d->%d", msg.src, msg.dst)
	}
	ep.wireTransferProc(p, msg.dst, int64(msg.size), pname)
	w.observe(MsgEvent{Kind: MsgWireDone, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, Bytes: msg.size, Eager: true, At: p.Now()})
	// The NIC has the data: the sender's buffer is free.
	msg.req.complete(Status{}, nil)
	msg.arrived.FireAfter(w.clus.Sys.NIC.WireLatency, nil)
}

// txCharge occupies the local transmit path for the per-message overhead
// plus the serialization of n bytes, charging the two usual legs, and
// returns the occupancy's end instant.
func (ps *partShard) txCharge(p *sim.Proc, src int, n int64, pname string) sim.Time {
	w := ps.w
	tx := w.Node(src).TX
	ov := w.clus.Sys.NIC.MsgOverhead
	d := ov + tx.SerializationTime(n)
	tx.Lock(p)
	start := p.Now()
	if d > 0 {
		p.Sleep(d)
	}
	end := p.Now()
	chargeWire(pname, n, start, end, ov, tx)
	tx.Unlock(p)
	return end
}

// cross emits a cross-partition event delivering job to the destination
// rank's receive daemon at instant at.
func (ps *partShard) cross(at sim.Time, job rxJob) {
	to := ps.pw.owner(job.dst)
	tgt := ps.pw.shards[to].part
	ps.pw.pe.Cross(ps.idx, to, at, func(p *sim.Proc) { tgt.enqueueRx(job.dst, job) })
}

// runXEager transmits a cross eager message: local tx charges, sender
// completion, then the payload travels as a cross event.
func (ps *partShard) runXEager(p *sim.Proc, x *xsend) {
	w := ps.w
	pname := ""
	if w.Node(x.src).TX.Observed() {
		pname = fmt.Sprintf("eager %d->%d", x.src, x.dst)
	}
	end := ps.txCharge(p, x.src, int64(x.size), pname)
	w.observe(MsgEvent{Kind: MsgWireDone, Src: x.src, Dst: x.dst, Tag: x.tag,
		Seq: x.seq, Bytes: x.size, Eager: true, At: end})
	x.req.complete(Status{}, nil)
	ps.cross(end.Add(w.clus.Sys.NIC.WireLatency), rxJob{
		kind: rxEager, src: x.src, dst: x.dst, tag: x.tag,
		seq: x.seq, size: x.size, wire: int64(x.size), payload: x.payload,
	})
	x.payload = bytepool.Seg{}
}

// runRTS transmits a cross rendezvous header. The sender's request stays
// pending until the receiver's clear-to-send comes back.
func (ps *partShard) runRTS(p *sim.Proc, x *xsend) {
	w := ps.w
	pname := ""
	if w.Node(x.src).TX.Observed() {
		pname = fmt.Sprintf("rndv %d->%d", x.src, x.dst)
	}
	end := ps.txCharge(p, x.src, 0, pname)
	ps.cross(end.Add(w.clus.Sys.NIC.WireLatency), rxJob{
		kind: rxRTS, src: x.src, dst: x.dst, tag: x.tag, seq: x.seq, size: x.size,
	})
}

// runData transmits a cross rendezvous data phase after clear-to-send: the
// live send buffer is captured now (rendezvous semantics), the wire charges
// land, the sender completes, and the payload crosses.
func (ps *partShard) runData(p *sim.Proc, x *xsend) {
	w := ps.w
	payload := bytepool.Capture(x.sendBuf)
	x.sendBuf = bytepool.Seg{}
	pname := ""
	if w.Node(x.src).TX.Observed() {
		pname = fmt.Sprintf("rndv %d->%d", x.src, x.dst)
	}
	end := ps.txCharge(p, x.src, int64(x.size), pname)
	w.observe(MsgEvent{Kind: MsgWireDone, Src: x.src, Dst: x.dst, Tag: x.tag,
		Seq: x.seq, RecvSeq: x.recvSeq, Bytes: x.size, At: end})
	// Sender's buffer is reusable once the NIC is done with it.
	x.req.complete(Status{}, nil)
	ps.cross(end.Add(w.clus.Sys.NIC.WireLatency), rxJob{
		kind: rxData, src: x.src, dst: x.dst, tag: x.tag,
		seq: x.seq, size: x.size, wire: int64(x.size), payload: payload, recvSeq: x.recvSeq,
	})
}

// rxLoop drains one node's receive queue: each arrival occupies the receive
// path (overhead plus serialization of the bytes on the wire), then takes
// effect — envelope injection into the matcher, or data-phase completion.
func (ps *partShard) rxLoop(p *sim.Proc, rank int, q *sim.Queue[rxJob]) {
	w := ps.w
	rx := w.Node(rank).RX
	ov := w.clus.Sys.NIC.MsgOverhead
	for {
		job, ok := q.Get(p)
		if !ok {
			return
		}
		pname := ""
		if rx.Observed() {
			verb := "eager"
			if job.kind != rxEager {
				verb = "rndv"
			}
			pname = fmt.Sprintf("%s %d->%d", verb, job.src, job.dst)
		}
		d := ov + rx.SerializationTime(job.wire)
		rx.Lock(p)
		start := p.Now()
		if d > 0 {
			p.Sleep(d)
		}
		mid := start.Add(ov)
		end := p.Now()
		rx.ChargeTagged("mpi.sw", pname, 0, start, mid)
		rx.ChargeTagged("wire", pname, job.wire, mid, end)
		rx.Unlock(p)
		switch job.kind {
		case rxEager:
			ps.inject(job, true)
		case rxRTS:
			ps.inject(job, false)
		case rxData:
			ps.completeData(p, job)
		}
	}
}

// inject places an arrived cross envelope into the destination's matcher,
// from where the ordinary matching machinery (wildcards, probers, overtaking
// rules) takes over. Eager arrivals carry their payload; rendezvous
// envelopes await a data phase.
func (ps *partShard) inject(job rxJob, eager bool) {
	w := ps.w
	msg := w.getMsg()
	msg.src, msg.dst, msg.tag, msg.seq = job.src, job.dst, job.tag, job.seq
	msg.size = job.size
	if eager {
		msg.eager = true
		msg.xArrived = true
		msg.payload = job.payload
	} else {
		msg.xRndv = true
	}
	comm := w.world
	comm.match.addMsg(msg)
	comm.matchPostedMsg(msg)
}

// awaitData records where a matched cross rendezvous must deliver once its
// data phase arrives. Called from deliver; msg and rop are recycled by the
// caller, so every needed field is copied out.
func (ps *partShard) awaitData(msg *message, rop *recvOp, st Status, pd, ud int) {
	ps.await[msg.seq] = &xawait{
		src: msg.src, dst: msg.dst, tag: msg.tag, seq: msg.seq, size: msg.size,
		buf: rop.buf, req: rop.req, st: st, recvSeq: rop.seq, pd: pd, ud: ud,
	}
}

// ctsBack grants (or denies) a cross rendezvous sender its clear-to-send.
// The control message is modelled as pure latency: its negligible wire
// occupancy is deliberately not charged. want=false tells the sender to
// complete without a data phase — the truncation rule, identical to the
// serial path where a truncated rendezvous sender completes immediately.
func (ps *partShard) ctsBack(msg *message, want bool, recvSeq uint64) {
	w := ps.w
	from, to := ps.idx, ps.pw.owner(msg.src)
	src := ps.pw.shards[to].part
	seq := msg.seq
	at := w.eng.Now().Add(w.clus.Sys.NIC.WireLatency)
	ps.pw.pe.Cross(from, to, at, func(p *sim.Proc) { src.handleCTS(seq, want, recvSeq) })
}

// handleCTS resolves a pending cross rendezvous on the sender's shard.
func (ps *partShard) handleCTS(seq uint64, want bool, recvSeq uint64) {
	x := ps.pend[seq]
	if x == nil {
		panic(fmt.Sprintf("mpi: clear-to-send for unknown message seq %d", seq))
	}
	delete(ps.pend, seq)
	if !want {
		x.sendBuf = bytepool.Seg{}
		x.req.complete(Status{}, nil)
		return
	}
	x.recvSeq = recvSeq
	ps.enqueueTx(x.src, txJob{kind: txData, x: x})
}

// completeData finishes a matched cross rendezvous receive: the data has
// fully arrived at the receive path, so the payload lands in the receiver's
// buffer and the receive completes.
func (ps *partShard) completeData(p *sim.Proc, job rxJob) {
	a := ps.await[job.seq]
	if a == nil {
		panic(fmt.Sprintf("mpi: data phase for unknown message seq %d", job.seq))
	}
	delete(ps.await, job.seq)
	bytepool.Copy(a.buf, job.payload)
	bytepool.Free(job.payload)
	a.req.complete(a.st, nil)
	ps.w.observe(MsgEvent{Kind: MsgDelivered, Src: a.src, Dst: a.dst, Tag: a.tag,
		Seq: a.seq, RecvSeq: a.recvSeq, Bytes: a.size, At: p.Now(),
		PostedDepth: a.pd, UnexpectedDepth: a.ud})
}

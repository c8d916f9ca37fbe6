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
// The cross protocol mirrors the serial one phase for phase. Each phase is
// one wireXfer run as two legs: a transmit leg holding the sender's tx path
// on the source shard, then a receive leg holding the receiver's rx path on
// the target shard, started by a cross event one wire latency after the
// transmit leg ends.
//
//	eager:  capture payload → tx leg → cross event → rx leg → inject the
//	        envelope+payload into the destination's matcher (xArrived).
//	rndv:   RTS tx leg (header only) → cross event → RTS rx leg → inject
//	        the envelope (xRndv) → on match the receiver grants
//	        clear-to-send (a pure-latency cross event; the control
//	        message's wire occupancy is deliberately not modelled) → data
//	        tx leg against the live send buffer → cross event → data rx
//	        leg → receive completes.
//
// Legs queue per message on their links, exactly like the serial engine's
// transfers, so a node's intra-shard traffic and its cross legs share one
// FIFO per link, and traffic that never leaves its shard is charged as on
// the serial engine. Each leg is a step process that ends with its
// occupancy, so the transport keeps no process per node.
//
// Both directions honour the conservative protocol: every cross event lands
// at least one wire latency after the instant it was produced, and the wire
// latency is the engine's one lookahead (cluster.LookaheadMatrix), so each
// shard's horizon admits every event before it can matter. The same
// ordering hands an xsend from one leg to the next: a shard runs the cross
// event that starts a leg only after the previous leg's shard has
// advertised a clock beyond that leg's end.
//
// Divergences from the serial model, by construction: the sender's tx and
// the receiver's rx occupancy are charged one latency apart instead of
// concurrently (cut-through across shards would need shared clocks), a
// rendezvous pays an RTS/CTS round trip instead of starting its data phase
// at match time, the destination's matcher-queue depths are unknown at the
// source (SendPosted events report zero depths), and cross traffic is
// restricted to MPI_COMM_WORLD. The parallel-vs-serial equivalence
// guarantee is unaffected: both executions of a partitioned world run this
// same transport.

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
			eps:   make([]*Endpoint, hi-lo),
			pend:  make(map[uint64]*xsend),
			await: make(map[uint64]*message),
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
// world, and the bookkeeping for in-flight cross-partition rendezvous.
type partShard struct {
	pw     *PartWorld
	idx    int
	lo, hi int
	w      *World

	// eps caches endpoint handles per local rank (indexed rank-lo), so hot
	// paths do not re-allocate them.
	eps []*Endpoint

	// pend: cross rendezvous sends awaiting the receiver's clear-to-send,
	// by message sequence. await: matched cross rendezvous envelopes (their
	// receive op in rop) awaiting the data phase. Both are touched only from
	// this shard's engine.
	pend  map[uint64]*xsend
	await map[uint64]*message
}

// local reports whether rank lives on this shard.
func (ps *partShard) local(rank int) bool { return rank >= ps.lo && rank < ps.hi }

// parts reports the partition count.
func (ps *partShard) parts() int { return len(ps.pw.shards) }

// endpoint returns the cached handle for a local rank.
func (ps *partShard) endpoint(rank int) *Endpoint {
	i := rank - ps.lo
	if ps.eps[i] == nil {
		ps.eps[i] = &Endpoint{world: ps.w, rank: rank}
	}
	return ps.eps[i]
}

// Cross-message phases: the wireXfer kind of each leg pair.
const (
	xEager uint8 = iota // envelope and payload
	xRTS                // rendezvous request-to-send: the header only
	xData               // rendezvous data phase, after clear-to-send
)

// xsend is a cross-partition message in flight: the sender's side of it,
// and the phase that the wireXfer legs carrying it across run — the
// transmit leg on the source shard, then the receive leg on the target
// shard, one at a time. Unlike message it never enters a matcher. Not
// pooled: the final reference is dropped on the target shard's side,
// where a recycle would race the source shard's pool.
type xsend struct {
	src, dst, tag int
	seq           uint64
	size          int
	kind          uint8 // xEager, xRTS or xData
	ssend         bool
	// buf is the captured payload of an eager send, and the live send
	// buffer of a rendezvous until its data leg's transmit ends and
	// captures it.
	buf     bytepool.Seg
	req     Request
	recvSeq uint64 // set by the clear-to-send grant
}

func (x *xsend) opLabel() string { return sendLabel(x.ssend, x.src, x.dst, x.tag) }
func (x *xsend) opSeq() uint64   { return x.seq }

// crossSend posts a send whose destination lives on another partition.
// Called in the sending rank's process context.
func (ps *partShard) crossSend(ep *Endpoint, buf bytepool.Seg, dest, tag int, comm *Comm, ssend bool) *Request {
	w := ps.w
	if comm != w.world {
		panic("mpi: cross-partition traffic is only supported on MPI_COMM_WORLD")
	}
	x := &xsend{src: ep.rank, dst: dest, tag: tag, seq: w.nextSeq(), size: buf.Len(), ssend: ssend}
	x.req.init(w.eng, x)
	eager := !ssend && x.size <= EagerThreshold
	if eager {
		x.buf = bytepool.Capture(buf)
		x.kind = xEager
	} else {
		x.buf = buf
		x.kind = xRTS
		ps.pend[x.seq] = x
	}
	if !ssend {
		// The destination's matcher-queue depths live on another shard;
		// cross SendPosted events report zero depths by construction.
		w.observe(MsgEvent{Kind: MsgSendPosted, Src: x.src, Dst: x.dst, Tag: x.tag,
			Seq: x.seq, Bytes: x.size, Eager: eager, At: w.eng.Now()})
	}
	w.spawnXfer(legTx, nil, x)
	return &x.req
}

// txDone is a transmit leg's tail on the source shard, once the last byte
// left at instant now: an eager or data phase completes the sender, and
// the receive leg starts on the target shard one wire latency later.
func (x *xsend) txDone(w *World, now sim.Time) {
	switch x.kind {
	case xEager:
		w.observe(MsgEvent{Kind: MsgWireDone, Src: x.src, Dst: x.dst, Tag: x.tag,
			Seq: x.seq, Bytes: x.size, Eager: true, At: now})
		x.req.complete(Status{}, nil)
	case xData:
		// Rendezvous semantics: the live send buffer is read only now.
		x.buf = bytepool.Capture(x.buf)
		w.observe(MsgEvent{Kind: MsgWireDone, Src: x.src, Dst: x.dst, Tag: x.tag,
			Seq: x.seq, RecvSeq: x.recvSeq, Bytes: x.size, At: now})
		// Sender's buffer is reusable once the NIC is done with it.
		x.req.complete(Status{}, nil)
	}
	ps := w.part
	to := ps.pw.owner(x.dst)
	tw := ps.pw.shards[to]
	ps.pw.pe.Cross(ps.idx, to, now.Add(w.clus.Sys.NIC.WireLatency), func() { tw.spawnXfer(legRx, nil, x) })
}

// rxDone is a receive leg's tail on the target shard, once the last byte
// arrived at instant now: an envelope enters the destination's matcher, or
// a data phase completes the matched receive.
func (x *xsend) rxDone(w *World, now sim.Time) {
	if x.kind == xData {
		w.part.completeData(x, now)
		return
	}
	w.part.inject(x)
}

// inject places an arrived cross envelope into the destination's matcher,
// from where the ordinary matching machinery (wildcards, probers, overtaking
// rules) takes over. Eager arrivals carry their payload; rendezvous
// envelopes await a data phase.
func (ps *partShard) inject(x *xsend) {
	w := ps.w
	msg := w.newMsg(x.src, x.dst, x.tag, x.seq, x.size)
	if x.kind == xEager {
		msg.eager = true
		msg.xArrived = true
		msg.payload = x.buf
		x.buf = bytepool.Seg{}
	} else {
		msg.xRndv = true
	}
	comm := w.world
	comm.match.addMsg(msg)
	comm.matchPostedMsg(msg)
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
	ps.pw.pe.Cross(from, to, at, func() { src.handleCTS(seq, want, recvSeq) })
}

// handleCTS resolves a pending cross rendezvous on the sender's shard, in
// its scheduler context: a grant starts the data phase's transmit leg.
func (ps *partShard) handleCTS(seq uint64, want bool, recvSeq uint64) {
	x := ps.pend[seq]
	if x == nil {
		panic(fmt.Sprintf("mpi: clear-to-send for unknown message seq %d", seq))
	}
	delete(ps.pend, seq)
	if !want {
		x.buf = bytepool.Seg{}
		x.req.complete(Status{}, nil)
		return
	}
	x.recvSeq = recvSeq
	x.kind = xData
	ps.w.spawnXfer(legTx, nil, x)
}

// completeData finishes a matched cross rendezvous receive: the data has
// fully arrived at the receive path at instant now, so the payload lands in
// the receiver's buffer and the receive completes.
func (ps *partShard) completeData(x *xsend, now sim.Time) {
	msg := ps.await[x.seq]
	if msg == nil {
		panic(fmt.Sprintf("mpi: data phase for unknown message seq %d", x.seq))
	}
	delete(ps.await, x.seq)
	bytepool.Copy(msg.rop.buf, x.buf)
	bytepool.Free(x.buf)
	x.buf = bytepool.Seg{}
	msg.rop.req.complete(msg.status(), nil)
	ps.w.observe(msg.delivered(now))
	ps.w.putMsg(msg)
}

package mpi

import (
	"fmt"

	"repro/internal/bytepool"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// World is one MPI job: a set of ranks mapped 1:1 onto cluster nodes,
// sharing a fabric. It owns the world communicator.
type World struct {
	eng    *sim.Engine
	clus   *cluster.Cluster
	size   int
	world  *Comm
	hook   CLMemHook
	msgObs MsgObserver
	seq    uint64 // global message sequence for deterministic tie-breaks
	// newMatch builds the matching core for each communicator. Tests swap it
	// (before any traffic) to run the legacy linear-scan oracle side by side.
	newMatch func(size int) matchEngine

	// part is non-nil when this world is one shard of a PartWorld: sends to
	// non-local ranks route through the cross-partition transport, and
	// injected cross envelopes recycle through msgPool.
	part    *partShard
	msgPool sim.Pool[message]
	// xfers recycles the step state of wire occupancies: taken when a leg
	// is spawned, returned when it ends (see endXfer).
	xfers     sim.Pool[wireXfer]
	spentXfer *wireXfer
}

// NewWorld creates a job spanning every node of the cluster.
func NewWorld(c *cluster.Cluster) *World {
	w := &World{eng: c.Eng, clus: c, size: len(c.Nodes)}
	w.newMatch = func(n int) matchEngine { return newBucketMatcher(n) }
	w.world = newComm(w, "MPI_COMM_WORLD")
	return w
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.size }

// nextSeq advances the world's message-sequence counter. A multi-shard
// partitioned world strides the per-shard counter by the shard count with
// the shard index as offset, so sequence numbers stay globally unique and
// per-shard monotonic; serial worlds and 1-partition worlds degenerate to
// the plain counter exactly.
func (w *World) nextSeq() uint64 {
	w.seq++
	if ps := w.part; ps != nil && ps.parts() > 1 {
		return w.seq*uint64(ps.parts()) + uint64(ps.idx)
	}
	return w.seq
}

// newMsg returns a message with its envelope set, recycled in partitioned
// worlds.
func (w *World) newMsg(src, dst, tag int, seq uint64, size int) *message {
	var m *message
	if w.part != nil {
		m = w.msgPool.Get()
	} else {
		m = &message{}
	}
	m.w, m.src, m.dst, m.tag, m.seq, m.size = w, src, dst, tag, seq, size
	return m
}

// putMsg recycles an engine-owned message in partitioned worlds: an
// injected cross envelope, whose embedded request was never handed out. The
// caller must guarantee no reference survives (unlinked from the matcher,
// payload released, no pending trigger callbacks).
func (w *World) putMsg(m *message) {
	if w.part != nil {
		w.msgPool.Put(m)
	}
}

// endXfer recycles a finished occupancy's step state. The engine retires
// the step's embedded Proc only after Step returns, so x waits in a
// one-deep slot and goes back to the pool when the next occupancy on w
// ends — by then x's Proc has long been retired.
func (w *World) endXfer(x *wireXfer) {
	if y := w.spentXfer; y != nil {
		w.xfers.Put(y)
	}
	w.spentXfer = x
}

// Comm returns the world communicator.
func (w *World) Comm() *Comm { return w.world }

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Cluster returns the modelled cluster the world runs on (a partial cluster
// for one shard of a partitioned world).
func (w *World) Cluster() *cluster.Cluster { return w.clus }

// Node returns the cluster node hosting the given rank.
func (w *World) Node(rank int) *cluster.Node { return w.clus.Nodes[rank] }

// CLMemHook lets an accelerator runtime take over transfers whose datatype
// is CLMem, the paper's MPI_CL_MEM (§IV-C): the hook sees standard MPI
// arguments and implements the host↔device collaboration behind them. The
// clMPI runtime (internal/clmpi) registers itself here. The host buffer is
// a data-plane segment, so a window that was never written crosses as zeros
// without being materialized.
type CLMemHook interface {
	IsendCLMem(p *sim.Proc, ep *Endpoint, buf bytepool.Seg, dest, tag int, comm *Comm) (*Request, error)
	IrecvCLMem(p *sim.Proc, ep *Endpoint, buf bytepool.Seg, src, tag int, comm *Comm) (*Request, error)
}

// RegisterCLMemHook installs the CL_MEM handler for this world.
func (w *World) RegisterCLMemHook(h CLMemHook) { w.hook = h }

// MsgEventKind names a message protocol phase.
type MsgEventKind int

const (
	// MsgSendPosted fires when a send enters the transport (Isend/Send).
	MsgSendPosted MsgEventKind = iota
	// MsgRecvPosted fires when a receive is posted (Irecv/Recv).
	MsgRecvPosted
	// MsgMatched fires when a message pairs with a posted receive.
	MsgMatched
	// MsgDelivered fires when the receive completes (payload in place).
	MsgDelivered
	// MsgWireDone fires when a message's wire transfer (eager body or
	// rendezvous data phase) has fully left the fabric — immediately after
	// the NIC charges land, on the transport process, so observers can
	// correlate the preceding link-occupancy records with the message.
	MsgWireDone
)

func (k MsgEventKind) String() string {
	switch k {
	case MsgSendPosted:
		return "send-posted"
	case MsgRecvPosted:
		return "recv-posted"
	case MsgMatched:
		return "matched"
	case MsgDelivered:
		return "delivered"
	case MsgWireDone:
		return "wire-done"
	default:
		return fmt.Sprintf("MsgEventKind(%d)", int(k))
	}
}

// MsgEvent describes one protocol phase of one message. Seq identifies the
// message (or, for MsgRecvPosted, the receive operation) across events of
// one world. For MsgRecvPosted, Src may be AnySource and Tag AnyTag.
type MsgEvent struct {
	Kind     MsgEventKind
	Src, Dst int
	Tag      int
	Seq      uint64
	// RecvSeq is the matched receive operation's sequence number, set on
	// MsgMatched and MsgDelivered so observers can pair a message with the
	// MsgRecvPosted event that claimed it.
	RecvSeq uint64
	Bytes   int
	Eager   bool // eager protocol (meaningful from MsgSendPosted on)
	At      sim.Time
	// PostedDepth and UnexpectedDepth are the destination rank's
	// matching-queue depths — posted receives and unexpected (pending)
	// messages — immediately after the event's action took effect. The
	// observability layer derives per-rank high-water marks from them.
	PostedDepth     int
	UnexpectedDepth int
}

// MsgObserver receives message protocol-phase notifications from a world.
// The observability layer (internal/trace) uses this to build per-message
// timelines and eager/rendezvous metrics.
type MsgObserver interface {
	MessageEvent(ev MsgEvent)
}

// SetMsgObserver installs the protocol observer (nil to remove).
func (w *World) SetMsgObserver(o MsgObserver) { w.msgObs = o }

// observe forwards ev to the observer when one is installed.
func (w *World) observe(ev MsgEvent) {
	if w.msgObs != nil {
		w.msgObs.MessageEvent(ev)
	}
}

// Endpoint is a rank's handle on the runtime. All calls on one endpoint may
// come from different simulated processes of that rank (host thread plus
// runtime helper threads) — MPI_THREAD_MULTIPLE.
type Endpoint struct {
	world *World
	rank  int
}

// Endpoint returns rank's handle.
func (w *World) Endpoint(rank int) *Endpoint {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: endpoint rank %d out of range [0,%d)", rank, w.size))
	}
	return &Endpoint{world: w, rank: rank}
}

// Rank reports this endpoint's rank.
func (ep *Endpoint) Rank() int { return ep.rank }

// Size reports the world size.
func (ep *Endpoint) Size() int { return ep.world.size }

// World returns the owning world.
func (ep *Endpoint) World() *World { return ep.world }

// Node returns the cluster node this rank runs on.
func (ep *Endpoint) Node() *cluster.Node { return ep.world.Node(ep.rank) }

// LaunchRanks spawns one host-thread process per rank running body, the
// standard SPMD entry point: body(p, ep) is rank ep.Rank()'s main.
func (w *World) LaunchRanks(name string, body func(p *sim.Proc, ep *Endpoint)) {
	lo, hi := 0, w.size
	if ps := w.part; ps != nil {
		lo, hi = ps.lo, ps.hi
	}
	for r := lo; r < hi; r++ {
		ep := w.Endpoint(r)
		// The name is diagnostic only (deadlock reports, traces): format it
		// lazily so a 100k-rank launch does not pay 100k fmt.Sprintf calls.
		w.eng.SpawnLazy(func() string { return fmt.Sprintf("%s.rank%d", name, ep.rank) },
			func(p *sim.Proc) { body(p, ep) })
	}
}

// Comm is a communicator: an isolated matching context over the world's
// ranks. Messages sent on one communicator are invisible to another.
type Comm struct {
	world *World
	name  string

	// Matching state. Access is safe without host locks because exactly
	// one simulated process runs at a time.
	match   matchEngine
	probers []*prober
}

func newComm(w *World, name string) *Comm {
	return &Comm{world: w, name: name, match: w.newMatch(w.size)}
}

// Name reports the communicator's diagnostic name.
func (c *Comm) Name() string { return c.name }

// MatchQueueDepths reports rank's current posted-receive and
// unexpected-message queue depths in this communicator's matching engine.
func (c *Comm) MatchQueueDepths(rank int) (postedRecvs, unexpected int) {
	return c.match.depths(rank)
}

// MatchQueueHighWater reports the peak posted-receive and unexpected-message
// queue depths the matching engine has seen for rank — the pressure metric
// the large-world scaling sweeps report. The trace carries the per-event
// depths as posted_q/unexpected_q args and keeps no copy of the peaks.
func (c *Comm) MatchQueueHighWater(rank int) (postedRecvs, unexpected int) {
	return c.match.highWater(rank)
}

// Dup creates a communicator with the same group but a separate matching
// context, like MPI_Comm_dup.
func (c *Comm) Dup(name string) *Comm { return newComm(c.world, name) }

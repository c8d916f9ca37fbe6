package mpi

import (
	"fmt"
	"time"

	"repro/internal/bytepool"
	"repro/internal/sim"
)

// localOverhead is the software cost of a self-message (shared-memory copy
// path inside one node).
const localOverhead = time.Microsecond

// Datatype tags the memory class of a transfer. Payloads are always raw
// bytes; the datatype only selects the transfer machinery, which is exactly
// how the paper employs MPI_CL_MEM (§IV-C).
type Datatype int

const (
	// Bytes is ordinary host memory.
	Bytes Datatype = iota
	// CLMem marks the peer buffer as device-resident: the transfer is
	// delegated to the registered CLMemHook (the clMPI runtime), which
	// collaborates with the sender for efficient host↔device staging.
	CLMem
)

// message is a posted send awaiting (or matched to) a receive. It is the
// send's one heap object: the request handed to the sender is embedded in
// it, and delivery runs from its fields with no closure per message.
type message struct {
	w             *World // the world the message is posted in
	src, dst, tag int
	seq           uint64
	size          int
	eager         bool
	ssend         bool // a synchronous send (Ssend)
	// direct marks an intra-node copy elision: a matching receive was
	// already posted when the send arrived, so delivery fills the
	// receiver-owned buffer straight from the sender's (no intermediate
	// payload capture). Set only when matching is synchronous with the send.
	direct bool
	// Cross-partition markers (see partition.go). xArrived: an injected
	// eager envelope whose payload came with it (req is unused — the
	// sender's request completed on its own shard). xRndv: an injected
	// rendezvous envelope whose data phase runs as a separate cross event
	// once the receiver grants clear-to-send (req is unused here too).
	xArrived bool
	xRndv    bool
	landed   bool         // an eager payload is at the receiver (see eagerLanded)
	payload  bytepool.Seg // eager: captured copy (bytepool.Capture); rendezvous/direct: empty
	sendBuf  bytepool.Seg // rendezvous (and direct self-sends): the live send buffer
	req      Request

	// The matched receive and the queue depths sampled at match time.
	rop    *recvOp
	pd, ud int32

	// Intrusive matcher links (see match.go): the (src, tag) lane FIFO and
	// the destination rank's arrival list. Nil once unlinked, so a matched
	// message retains nothing.
	laneNext, lanePrev *message
	arrNext, arrPrev   *message
}

// recvOp is a posted receive awaiting a message. Like message, it is the
// receive's one heap object, with the request embedded.
type recvOp struct {
	owner    int // the rank that posted the receive
	src, tag int // may be AnySource / AnyTag
	seq      uint64
	buf      bytepool.Seg
	req      Request

	// Intrusive matcher links: the literal (src, tag) lane FIFO, and the
	// lane's index in the owner's bucket while the receive is posted.
	laneNext, lanePrev *recvOp
	lane               int32
}

func (m *message) opLabel() string { return sendLabel(m.ssend, m.src, m.dst, m.tag) }
func (m *message) opSeq() uint64   { return m.seq }

func (r *recvOp) opLabel() string {
	return fmt.Sprintf("irecv %d<-%d tag %d", r.owner, r.src, r.tag)
}
func (r *recvOp) opSeq() uint64 { return r.seq }

// Isend starts a nonblocking send of buf to rank dest with the given tag,
// like MPI_Isend. With dtype CLMem the registered hook takes over.
//
// Eager messages (≤ EagerThreshold) capture the payload immediately: the
// request completes once the NIC has accepted the data, regardless of the
// receiver. Larger messages use rendezvous: the request completes only after
// the matching receive is posted and the wire transfer has finished.
func (ep *Endpoint) Isend(p *sim.Proc, buf []byte, dest, tag int, dtype Datatype, comm *Comm) (*Request, error) {
	return ep.IsendSeg(p, bytepool.Host(buf), dest, tag, dtype, comm)
}

// IsendSeg is Isend from a data-plane segment, such as a window of device
// memory: a window that was never written travels as zeros without being
// materialized, also through the CLMem hook.
func (ep *Endpoint) IsendSeg(p *sim.Proc, buf bytepool.Seg, dest, tag int, dtype Datatype, comm *Comm) (*Request, error) {
	if err := ep.checkArgs(dest, tag); err != nil {
		return nil, err
	}
	if dtype == CLMem {
		if ep.world.hook == nil {
			return nil, ErrNoCLMemHook
		}
		return ep.world.hook.IsendCLMem(p, ep, buf, dest, tag, comm)
	}
	return ep.postSend(buf, dest, tag, comm), nil
}

// postSend is the transport-level send, shared by user sends and internal
// collective traffic (which uses negative tags).
func (ep *Endpoint) postSend(buf bytepool.Seg, dest, tag int, comm *Comm) *Request {
	w := ep.world
	if ps := w.part; ps != nil && !ps.local(dest) && dest != ep.rank {
		// Destination lives on another partition: route through the
		// cross-partition transport (see partition.go).
		return ps.crossSend(ep, buf, dest, tag, comm, false)
	}
	msg := w.newMsg(ep.rank, dest, tag, w.nextSeq(), buf.Len())
	msg.req.init(w.eng, msg)
	switch {
	case dest == ep.rank:
		// Self-message: a shared-memory copy, no NIC involved.
		msg.eager = true
		if rop := comm.firstMatch(msg); rop != nil && msg.size <= rop.buf.Len() {
			// Copy elision: the receive is already posted, and matching
			// happens synchronously below, so delivery can fill the
			// receiver's buffer directly from the (still untouched) send
			// buffer instead of staging a payload copy.
			msg.direct = true
			msg.sendBuf = buf
		} else {
			msg.payload = bytepool.Capture(buf)
		}
		d := localOverhead + secondsToDur(float64(msg.size)/ep.Node().Sys.CPU.MemBW)
		w.eng.AfterCall(d, eagerLanded, msg)
		msg.req.completeAfter(d, Status{}, nil)
	case msg.size <= EagerThreshold:
		msg.eager = true
		msg.payload = bytepool.Capture(buf)
		msg.startWire()
	default:
		msg.sendBuf = buf // rendezvous: transfer happens at match time
	}
	comm.match.addMsg(msg)
	pd, ud := comm.match.depths(msg.dst)
	w.observe(MsgEvent{Kind: MsgSendPosted, Src: msg.src, Dst: msg.dst, Tag: msg.tag,
		Seq: msg.seq, Bytes: msg.size, Eager: msg.eager, At: w.eng.Now(),
		PostedDepth: pd, UnexpectedDepth: ud})
	comm.matchPostedMsg(msg)
	return &msg.req
}

// Irecv starts a nonblocking receive into buf from rank src (or AnySource)
// with the given tag (or AnyTag), like MPI_Irecv. With dtype CLMem the
// registered hook takes over.
func (ep *Endpoint) Irecv(p *sim.Proc, buf []byte, src, tag int, dtype Datatype, comm *Comm) (*Request, error) {
	return ep.IrecvSeg(p, bytepool.Host(buf), src, tag, dtype, comm)
}

// IrecvSeg is Irecv into a data-plane segment, such as a window of device
// memory: zeros arriving into a window that was never written leave it
// unmaterialized, also through the CLMem hook.
func (ep *Endpoint) IrecvSeg(p *sim.Proc, buf bytepool.Seg, src, tag int, dtype Datatype, comm *Comm) (*Request, error) {
	if src != AnySource {
		if src < 0 || src >= ep.world.size {
			return nil, fmt.Errorf("%w: source %d", ErrRankRange, src)
		}
	}
	if tag != AnyTag && tag < 0 {
		return nil, fmt.Errorf("%w: tag %d", ErrTagNegative, tag)
	}
	if dtype == CLMem {
		if ep.world.hook == nil {
			return nil, ErrNoCLMemHook
		}
		return ep.world.hook.IrecvCLMem(p, ep, buf, src, tag, comm)
	}
	return ep.postRecv(buf, src, tag, comm), nil
}

// postRecv is the transport-level receive, shared by user receives and
// internal collective traffic.
func (ep *Endpoint) postRecv(buf bytepool.Seg, src, tag int, comm *Comm) *Request {
	w := ep.world
	rop := &recvOp{owner: ep.rank, src: src, tag: tag, seq: w.nextSeq(), buf: buf}
	rop.req.init(w.eng, rop)
	// Take the earliest pending message in arrival order (non-overtaking per
	// sender); only an unmatched receive joins the posted queue.
	msg := comm.match.takeMsg(rop)
	if msg == nil {
		comm.match.addRecv(rop)
	}
	pd, ud := comm.match.depths(ep.rank)
	w.observe(MsgEvent{Kind: MsgRecvPosted, Src: src, Dst: ep.rank, Tag: tag,
		Seq: rop.seq, Bytes: buf.Len(), At: w.eng.Now(),
		PostedDepth: pd, UnexpectedDepth: ud})
	if msg != nil {
		comm.deliver(msg, rop)
	}
	return &rop.req
}

// matches reports whether a posted receive accepts a message. Wildcard tags
// only match user messages (non-negative tags), so internal collective
// traffic can never satisfy an AnyTag receive.
func matches(rop *recvOp, msg *message) bool {
	if rop.src != AnySource && rop.src != msg.src {
		return false
	}
	if rop.tag == AnyTag {
		return msg.tag >= 0
	}
	return rop.tag == msg.tag
}

// firstMatch returns the posted receive that matchPostedMsg would pair msg
// with, or nil — the send-side copy-elision prediction. It shares the
// engine's selection code with the real match, so the two cannot drift.
func (c *Comm) firstMatch(msg *message) *recvOp {
	return c.match.matchMsg(msg, false)
}

// matchPostedMsg wakes matching probers and pairs a just-enqueued message
// against posted receives — the shared tail of every send path.
func (c *Comm) matchPostedMsg(msg *message) {
	c.notifyProbers(msg)
	if rop := c.match.matchMsg(msg, true); rop != nil {
		c.match.removeMsg(msg)
		c.deliver(msg, rop)
	}
}

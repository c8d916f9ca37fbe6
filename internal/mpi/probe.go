package mpi

import (
	"fmt"

	"repro/internal/bytepool"
	"repro/internal/sim"
)

// prober is a blocked MPI_Probe waiting for a matching message envelope.
type prober struct {
	owner    int
	src, tag int
	tr       *sim.Trigger
}

// WaitLabel implements sim.Labeler: the deadlock-report annotation of a
// process blocked in the probe.
func (pr *prober) WaitLabel() string {
	return fmt.Sprintf("trigger probe %d<-%d tag %d", pr.owner, pr.src, pr.tag)
}

// probeMatches reuses the receive-matching rules for a probe filter.
func probeMatches(pr *prober, msg *message) bool {
	if msg.dst != pr.owner {
		return false
	}
	rop := &recvOp{owner: pr.owner, src: pr.src, tag: pr.tag}
	return matches(rop, msg)
}

// Iprobe reports, without blocking or consuming, whether a message matching
// (src, tag) — wildcards allowed — is pending for this rank, and its
// envelope if so, like MPI_Iprobe.
func (ep *Endpoint) Iprobe(src, tag int, comm *Comm) (bool, Status, error) {
	if src != AnySource && (src < 0 || src >= ep.world.size) {
		return false, Status{}, fmt.Errorf("%w: source %d", ErrRankRange, src)
	}
	if tag != AnyTag && tag < 0 {
		return false, Status{}, fmt.Errorf("%w: tag %d", ErrTagNegative, tag)
	}
	if msg := comm.match.peekMsg(ep.rank, src, tag); msg != nil {
		return true, Status{Source: msg.src, Tag: msg.tag, Count: msg.size}, nil
	}
	return false, Status{}, nil
}

// Probe blocks until a matching message is pending and returns its
// envelope without consuming it, like MPI_Probe. A subsequent Recv with the
// returned source and tag is guaranteed to match a message of the reported
// size (single-threaded per rank; concurrent receivers can race for it, as
// in MPI).
func (ep *Endpoint) Probe(p *sim.Proc, src, tag int, comm *Comm) (Status, error) {
	for {
		ok, st, err := ep.Iprobe(src, tag, comm)
		if err != nil {
			return Status{}, err
		}
		if ok {
			return st, nil
		}
		pr := &prober{owner: ep.rank, src: src, tag: tag}
		pr.tr = sim.NewTriggerLazy(ep.world.eng, pr)
		comm.probers = append(comm.probers, pr)
		pr.tr.Wait(p)
		// A message for us arrived; loop to pick up its envelope (it may
		// have been consumed by a concurrent receive in the meantime).
	}
}

// notifyProbers wakes probers whose filter matches the new message.
func (c *Comm) notifyProbers(msg *message) {
	if len(c.probers) == 0 {
		return
	}
	remaining := c.probers[:0]
	for _, pr := range c.probers {
		if probeMatches(pr, msg) {
			pr.tr.Fire(nil)
		} else {
			remaining = append(remaining, pr)
		}
	}
	c.probers = remaining
}

// Ssend sends buf with synchronous-send semantics (MPI_Ssend): the call
// returns only after the matching receive has been posted and the transfer
// completed, regardless of message size — eager buffering is disabled. A
// synchronous self-send therefore requires a receive posted by another
// process of the same rank (or earlier), exactly the deadlock trap MPI_Ssend
// is famous for; the simulator's deadlock detector reports it.
func (ep *Endpoint) Ssend(p *sim.Proc, buf []byte, dest, tag int, comm *Comm) error {
	if err := ep.checkArgs(dest, tag); err != nil {
		return err
	}
	w := ep.world
	if ps := w.part; ps != nil && !ps.local(dest) {
		req := ps.crossSend(ep, bytepool.Host(buf), dest, tag, comm, true)
		_, err := req.Wait(p)
		return err
	}
	msg := w.newMsg(ep.rank, dest, tag, w.nextSeq(), len(buf))
	msg.sendBuf = bytepool.Host(buf) // rendezvous path: completes only on match
	msg.ssend = true
	msg.req.init(w.eng, msg)
	comm.match.addMsg(msg)
	comm.matchPostedMsg(msg)
	_, err := msg.req.Wait(p)
	return err
}

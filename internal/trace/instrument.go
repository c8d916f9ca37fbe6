package trace

import (
	"fmt"

	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// Instrument attaches the tracer's bus to every instrumentable layer of a
// job: cluster links (NIC, PCIe, GPU compute units), the MPI message
// protocol, and the extension fabric's strategy selection and transfer
// pipelines. Command queues attach per context via InstrumentContext. Any
// argument may be nil to skip that layer. Alongside spans the adapters emit
// the typed causal edges the critical-path analyzer
// (internal/trace/critpath) consumes; the metrics report is derived from
// what they record (Bus.Metrics).
func (t *Tracer) Instrument(clus *cluster.Cluster, world *mpi.World, fab *clmpi.Fabric) {
	b := t.bus
	es := t.edges
	if clus != nil {
		clus.Observe(linkAdapter{b: b, es: es})
	}
	if world != nil {
		world.SetMsgObserver(newMsgAdapter(b, es))
	}
	if fab != nil {
		fab.SetPlanObserver(func(st clmpi.Strategy, size int64) {
			b.plans = append(b.plans, plan{strategy: st.String(), bytes: size})
		})
		fab.SetStageObserver(func(sp xfer.Span) { t.stageSpan(sp) })
		fab.SetPipeObserver(func(lane, proc string, done bool) {
			if !done {
				// Anchor the pipeline to the worker's previous command:
				// its first stage span could not start earlier.
				if id, ok := es.lastCmdByProc[proc]; ok {
					es.pipeStartCmd[lane] = id
				}
				return
			}
			// The pipeline's final span bounds when the owning command
			// can finish; drained at that command's completion.
			if id, ok := es.lastXfer[lane]; ok {
				es.pendingPipe = append(es.pendingPipe, id)
			}
		})
		fab.SetMsgOpObserver(func(seq uint64) {
			es.pendingMsg = append(es.pendingMsg, seq)
		})
	}
}

// stageSpan records one pipeline stage hop and its causal edges: the window
// handoff from the previous stage, FIFO ordering against the stage's
// previous window, resource charges made by the hop's process, and the
// message-protocol nodes of wire operations completed inside the hop.
func (t *Tracer) stageSpan(sp xfer.Span) {
	b, es := t.bus, t.edges
	id := b.Span(LayerXfer, sp.Lane, sp.Stage, sp.Start, sp.End, AInt("bytes", sp.Bytes))

	// First span of the pipeline: gated by the command that preceded the
	// pipeline on the enqueueing worker.
	if prev, ok := es.pipeStartCmd[sp.Lane]; ok {
		b.Edge(EdgeMsg, prev, id)
		delete(es.pipeStartCmd, sp.Lane)
	}
	wk := xferKey{lane: sp.Lane, seq: sp.Seq}
	prevWin, hasPrevWin := es.xferWin[wk]
	if hasPrevWin {
		b.Edge(EdgeHandoff, prevWin, id)
	}
	es.xferWin[wk] = id
	sk := xferKey{lane: sp.Lane, stage: sp.Stage, seq: -1}
	if prev, ok := es.xferStage[sk]; ok {
		b.Edge(EdgeQueue, prev, id)
	}
	es.xferStage[sk] = id
	es.lastXfer[sp.Lane] = id

	for _, cid := range es.drainCharges(sp.Proc) {
		b.Edge(EdgeCharge, cid, id)
	}
	for _, seq := range es.pendingMsg {
		// Send ops key by message seq, receive ops by receive-op seq; the
		// world allocates both from one counter, so lookups cannot mix.
		b.Edge(EdgeCharge, node(es.deliveredNode, seq), id)
		b.Edge(EdgeCharge, node(es.deliveredByRecv, seq), id)
		for _, wid := range es.wireNodes[seq] {
			b.Edge(EdgeCharge, wid, id)
		}
		if hasPrevWin {
			// The posting of the operation was itself gated by the
			// previous stage's handoff of this window.
			b.Edge(EdgeMsg, prevWin, node(es.sendNode, seq))
			b.Edge(EdgeMsg, prevWin, node(es.recvNode, seq))
		}
	}
	es.pendingMsg = es.pendingMsg[:0]
}

// linkAdapter feeds sim.Link occupancy into cluster-layer spans. Each span
// is named after the charge's resource class and registered for EdgeCharge
// attribution to the span (command, stage hop, message) that caused it.
type linkAdapter struct {
	b  *Bus
	es *edgeState
}

func (a linkAdapter) LinkBusy(link, tag, proc string, bytes int64, start, end sim.Time) {
	var args []Arg
	if bytes > 0 {
		args = []Arg{AInt("bytes", bytes)}
	}
	id := a.b.Span(LayerCluster, link, tag, start, end, args...)
	a.es.chargesByProc[proc] = append(a.es.chargesByProc[proc], id)
}

// msgAdapter turns protocol-phase notifications into mpi-layer events (a
// send-posted instant, a matched instant, and one span per message from
// send-posted to delivered) and the message legs of the causal graph.
type msgAdapter struct {
	b    *Bus
	es   *edgeState
	open map[uint64]mpi.MsgEvent // send-posted events by Seq
}

func newMsgAdapter(b *Bus, es *edgeState) *msgAdapter {
	return &msgAdapter{b: b, es: es, open: make(map[uint64]mpi.MsgEvent)}
}

// msgLane names the per-pair lane a message's span lives on.
func msgLane(src, dst int) string { return fmt.Sprintf("rank%d->rank%d", src, dst) }

// proto names the protocol of a message for labels and the "proto" arg.
func proto(eager bool) string {
	if eager {
		return "eager"
	}
	return "rendezvous"
}

func (a *msgAdapter) MessageEvent(ev mpi.MsgEvent) {
	es := a.es
	if ev.Kind == mpi.MsgWireDone {
		// Pure graph bookkeeping: adopt the NIC charges the transport
		// process just made as this message's wire legs, ordered after
		// the send posting (eager) or the match (rendezvous data phase).
		proc := fmt.Sprintf("rndv %d->%d", ev.Src, ev.Dst)
		from := node(es.matchNode, ev.Seq)
		if ev.Eager {
			proc = fmt.Sprintf("eager %d->%d", ev.Src, ev.Dst)
			from = node(es.sendNode, ev.Seq)
		}
		ids := es.drainCharges(proc)
		if len(ids) > 0 {
			es.wireNodes[ev.Seq] = append([]EventID(nil), ids...)
			for _, cid := range ids {
				a.b.Edge(EdgeMsg, from, cid)
			}
		}
		return
	}
	switch ev.Kind {
	case mpi.MsgSendPosted:
		a.open[ev.Seq] = ev
		es.sendNode[ev.Seq] = a.b.Instant(LayerMPI, msgLane(ev.Src, ev.Dst), "send posted", ev.At,
			AInt("tag", int64(ev.Tag)), AInt("bytes", int64(ev.Bytes)), A("proto", proto(ev.Eager)))
	case mpi.MsgRecvPosted:
		es.recvNode[ev.Seq] = a.b.Instant(LayerMPI, fmt.Sprintf("rank%d.recv", ev.Dst), "irecv posted", ev.At,
			AInt("src", int64(ev.Src)), AInt("tag", int64(ev.Tag)),
			AInt("posted_q", int64(ev.PostedDepth)), AInt("unexpected_q", int64(ev.UnexpectedDepth)))
	case mpi.MsgMatched:
		id := a.b.Instant(LayerMPI, msgLane(ev.Src, ev.Dst), "matched", ev.At,
			AInt("tag", int64(ev.Tag)), AInt("bytes", int64(ev.Bytes)),
			AInt("posted_q", int64(ev.PostedDepth)), AInt("unexpected_q", int64(ev.UnexpectedDepth)))
		a.b.Edge(EdgeMsg, node(es.sendNode, ev.Seq), id)
		a.b.Edge(EdgeMsg, node(es.recvNode, ev.RecvSeq), id)
		es.matchNode[ev.Seq] = id
	case mpi.MsgDelivered:
		start := ev.At
		if posted, ok := a.open[ev.Seq]; ok {
			start = posted.At
			delete(a.open, ev.Seq)
		}
		id := a.b.Span(LayerMPI, msgLane(ev.Src, ev.Dst),
			fmt.Sprintf("msg tag=%d %s %dB", ev.Tag, proto(ev.Eager), ev.Bytes),
			start, ev.At,
			AInt("tag", int64(ev.Tag)), AInt("bytes", int64(ev.Bytes)), A("proto", proto(ev.Eager)))
		a.b.Edge(EdgeMsg, node(es.matchNode, ev.Seq), id)
		for _, wid := range es.wireNodes[ev.Seq] {
			a.b.Edge(EdgeCharge, wid, id)
		}
		es.deliveredNode[ev.Seq] = id
		es.deliveredByRecv[ev.RecvSeq] = id
	}
}

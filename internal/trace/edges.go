package trace

import (
	"repro/internal/cl"
)

// edgeState is the shared bookkeeping behind causal-edge emission: every
// adapter the tracer installs (context observers, the link adapter, the
// message adapter, the xfer stage/pipe observers) records what it has seen
// here so later notifications can attach typed edges to earlier events.
// Like the bus it relies on the DES single-runner property.
type edgeState struct {
	// evmap maps completed cl.Events to their command span (or, for
	// external events such as user events and bridged MPI requests, to a
	// synthesized completion instant).
	evmap map[*cl.Event]EventID

	// lastCmdByLane chains commands of one in-order queue lane.
	lastCmdByLane map[string]EventID
	// lastCmdByProc remembers each worker process's most recent command
	// span, so a transfer pipeline can be anchored to the command that
	// preceded it on the same worker.
	lastCmdByProc map[string]EventID

	// chargesByProc accumulates tagged link-occupancy spans per charging
	// process until the span that owns them (command, stage hop, message
	// delivery) is recorded and drains them into EdgeCharge edges.
	chargesByProc map[string][]EventID

	// Per-message protocol nodes, keyed by the world's shared sequence
	// space (message seq for sends, receive-op seq for receives).
	sendNode        map[uint64]EventID
	recvNode        map[uint64]EventID
	matchNode       map[uint64]EventID
	deliveredNode   map[uint64]EventID
	deliveredByRecv map[uint64]EventID
	wireNodes       map[uint64][]EventID

	// Host program order: the last node each simulated process observed
	// completing through an Event.Wait return, and the pending
	// enqueue-dependency captured from it for each not-yet-completed
	// command (resolved into an EdgeHost when the command's span exists).
	lastHostNode map[string]EventID
	enqDep       map[*cl.Event]EventID

	// Transfer-pipeline chains: last span per (lane, window) for stage
	// handoffs, per (lane, stage) for window ordering, and per lane.
	xferWin      map[xferKey]EventID
	xferStage    map[xferKey]EventID
	lastXfer     map[string]EventID
	pipeStartCmd map[string]EventID

	// pendingPipe holds final pipeline spans awaiting the completion of
	// the command that ran them; pendingMsg holds wire-operation sequence
	// numbers awaiting their stage hop's span. Both are drained on the
	// same worker process that filled them, before any other process can
	// run, so entries can never mix across owners.
	pendingPipe []EventID
	pendingMsg  []uint64
}

// xferKey addresses a pipeline chain position: lane plus window index (for
// handoffs) or lane plus stage name (for window ordering, with seq unused).
type xferKey struct {
	lane  string
	stage string
	seq   int
}

func newEdgeState() *edgeState {
	return &edgeState{
		evmap:           make(map[*cl.Event]EventID),
		lastCmdByLane:   make(map[string]EventID),
		lastCmdByProc:   make(map[string]EventID),
		chargesByProc:   make(map[string][]EventID),
		sendNode:        make(map[uint64]EventID),
		recvNode:        make(map[uint64]EventID),
		matchNode:       make(map[uint64]EventID),
		deliveredNode:   make(map[uint64]EventID),
		deliveredByRecv: make(map[uint64]EventID),
		wireNodes:       make(map[uint64][]EventID),
		lastHostNode:    make(map[string]EventID),
		enqDep:          make(map[*cl.Event]EventID),
		xferWin:         make(map[xferKey]EventID),
		xferStage:       make(map[xferKey]EventID),
		lastXfer:        make(map[string]EventID),
		pipeStartCmd:    make(map[string]EventID),
	}
}

// node is a nil-safe map lookup returning NoEvent on a miss, so callers can
// hand the result straight to Bus.Edge.
func node(m map[uint64]EventID, k uint64) EventID {
	if id, ok := m[k]; ok {
		return id
	}
	return NoEvent
}

// drainCharges empties a process's accumulated charge list, returning it
// for edge emission. The backing array is reused for future charges, so the
// caller must not retain the slice beyond the current notification.
func (es *edgeState) drainCharges(proc string) []EventID {
	ids := es.chargesByProc[proc]
	if len(ids) > 0 {
		es.chargesByProc[proc] = ids[:0]
	}
	return ids
}

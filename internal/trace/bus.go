package trace

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// Layer names partition the event stream by the subsystem that produced it.
// The Chrome exporter maps each layer to one process, so the three runtime
// layers the paper reasons about (device queues, MPI protocol, hardware
// links) appear side by side in the viewer.
const (
	// LayerCL carries OpenCL command-queue lifecycle spans (internal/cl).
	LayerCL = "cl"
	// LayerMPI carries message protocol-phase spans (internal/mpi).
	LayerMPI = "mpi"
	// LayerCluster carries link/NIC/PCIe occupancy spans (internal/cluster
	// resources, via sim.Link observers).
	LayerCluster = "cluster"
	// LayerApp carries application-level markers such as Himeno iteration
	// boundaries.
	LayerApp = "app"
	// LayerXfer carries the transfer-pipeline engine's per-stage spans
	// (internal/xfer, via the fabric's stage observer): one lane per
	// transfer, one span per (stage, window) hop.
	LayerXfer = "xfer"
)

// Phase distinguishes event shapes, mirroring the Chrome trace_event
// phases the exporter emits.
type Phase byte

const (
	// PhaseSpan is a complete interval [Start, End].
	PhaseSpan Phase = 'X'
	// PhaseInstant is a point event at Start (End == Start).
	PhaseInstant Phase = 'i'
)

// Arg is one ordered key/value annotation on an event. Values are
// pre-stringified so recording is allocation-cheap and export is
// deterministic (no map iteration anywhere).
type Arg struct {
	Key string
	Val string
}

// A builds a string argument.
func A(key, val string) Arg { return Arg{Key: key, Val: val} }

// AInt builds an integer argument.
func AInt(key string, val int64) Arg { return Arg{Key: key, Val: fmt.Sprintf("%d", val)} }

// Event is one record on the bus.
type Event struct {
	Layer string
	Lane  string // resource within the layer: queue name, link name, rank pair
	Name  string
	Ph    Phase
	Start sim.Time
	End   sim.Time // == Start for instants
	Args  []Arg
}

// EventID identifies one event on its bus: the index into the record-order
// event stream. Recording calls return it so instrumentation can attach
// causal edges between events.
type EventID int32

// NoEvent is the null EventID; Edge ignores endpoints equal to it.
const NoEvent EventID = -1

// EdgeKind types a causal edge between two bus events. The critical-path
// analyzer distinguishes ordering edges (the target could not start before
// the source ended) from refinement edges (the source is inner activity that
// determined when the target span ended).
type EdgeKind byte

const (
	// EdgeQueue orders two events serialized by a FIFO resource: commands
	// on an in-order command queue, or the same pipeline stage across
	// consecutive windows.
	EdgeQueue EdgeKind = iota
	// EdgeWait orders a command after an event in its wait list (explicit
	// event dependencies, user events, bridged MPI-request events).
	EdgeWait
	// EdgeMsg orders the legs of one message: send-posted → matched,
	// recv-posted → matched, matched → delivered, and the cross-layer
	// hops that launch them.
	EdgeMsg
	// EdgeHandoff orders consecutive pipeline stages of the same window
	// (the stage-ring handoff inside one transfer).
	EdgeHandoff
	// EdgeCharge is a refinement edge: a resource charge (link occupancy,
	// wire leg, delivered message) made on behalf of the target span and
	// bounding when it could end.
	EdgeCharge
	// EdgePipe is a refinement edge from a transfer pipeline's final stage
	// span to the OpenCL command that ran the pipeline.
	EdgePipe
	// EdgeHost orders a command after the last event its enqueuing host
	// thread observed completing (via a wait return) before the enqueue —
	// the program-order serialization of the application thread itself,
	// which no event dependency expresses.
	EdgeHost
)

// String names the edge kind for the native trace format and reports.
func (k EdgeKind) String() string {
	switch k {
	case EdgeQueue:
		return "queue"
	case EdgeWait:
		return "wait"
	case EdgeMsg:
		return "msg"
	case EdgeHandoff:
		return "handoff"
	case EdgeCharge:
		return "charge"
	case EdgePipe:
		return "pipe"
	case EdgeHost:
		return "host"
	}
	return "?"
}

// Refines reports whether the edge kind is a refinement (inner activity of
// the target) rather than an ordering constraint on the target's start.
func (k EdgeKind) Refines() bool { return k == EdgeCharge || k == EdgePipe }

// Edge is one typed causal edge: From happened-before (ordering kinds) or
// refines (refinement kinds) To.
type Edge struct {
	Kind     EdgeKind
	From, To EventID
}

// Bus is the unified observability collector: every instrumented layer
// appends events here, and the exporters (ASCII Gantt, Chrome JSON) and the
// metrics report (Metrics) read from it. Like the rest of the simulation it
// relies on the DES single-runner property and is not safe for host-level
// concurrency.
type Bus struct {
	events []Event
	edges  []Edge
	plans  []plan
}

// plan is one transfer-plan resolution of the extension fabric: the chosen
// strategy and the message size. It is the one metrics input that is not an
// event, because a plan has no extent in virtual time and an extra event
// would change the causal graph the critical-path analyzer walks.
type plan struct {
	strategy string
	bytes    int64
}

// NewBus creates an empty bus.
func NewBus() *Bus { return &Bus{} }

// Span records a completed interval on a lane and returns its id.
func (b *Bus) Span(layer, lane, name string, start, end sim.Time, args ...Arg) EventID {
	if end < start {
		start, end = end, start
	}
	b.events = append(b.events, Event{Layer: layer, Lane: lane, Name: name, Ph: PhaseSpan, Start: start, End: end, Args: args})
	return EventID(len(b.events) - 1)
}

// Instant records a point event on a lane and returns its id.
func (b *Bus) Instant(layer, lane, name string, at sim.Time, args ...Arg) EventID {
	b.events = append(b.events, Event{Layer: layer, Lane: lane, Name: name, Ph: PhaseInstant, Start: at, End: at, Args: args})
	return EventID(len(b.events) - 1)
}

// Edge records a typed causal edge between two previously recorded events.
// Edges with a NoEvent endpoint, out-of-range ids, or identical endpoints
// are dropped, so callers can pass lookups that may have missed.
func (b *Bus) Edge(kind EdgeKind, from, to EventID) {
	n := EventID(len(b.events))
	if from < 0 || to < 0 || from >= n || to >= n || from == to {
		return
	}
	b.edges = append(b.edges, Edge{Kind: kind, From: from, To: to})
}

// Events returns all recorded events in record order.
func (b *Bus) Events() []Event { return append([]Event(nil), b.events...) }

// Edges returns all recorded causal edges in record order.
func (b *Bus) Edges() []Edge { return append([]Edge(nil), b.edges...) }

// End reports the latest instant covered by any event (the traced horizon).
func (b *Bus) End() sim.Time {
	var tmax sim.Time
	for _, ev := range b.events {
		if ev.End > tmax {
			tmax = ev.End
		}
	}
	return tmax
}

// interval is a half-open [lo, hi) slice of virtual time.
type interval struct{ lo, hi sim.Time }

// union sorts and merges intervals into a disjoint ascending set.
func union(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// total sums the lengths of a disjoint interval set clipped to [lo, hi).
func total(ivs []interval, lo, hi sim.Time) time.Duration {
	var sum time.Duration
	for _, iv := range ivs {
		a, b := iv.lo, iv.hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b.Sub(a)
		}
	}
	return sum
}

// intersect returns the pairwise intersection of two disjoint ascending sets.
func intersect(a, b []interval) []interval {
	var out []interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].lo
		if b[j].lo > lo {
			lo = b[j].lo
		}
		hi := a[i].hi
		if b[j].hi < hi {
			hi = b[j].hi
		}
		if hi > lo {
			out = append(out, interval{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// intervals collects the spans matching sel as an interval union.
func (b *Bus) intervals(sel func(*Event) bool) []interval {
	var ivs []interval
	for i := range b.events {
		ev := &b.events[i]
		if ev.Ph == PhaseSpan && ev.End > ev.Start && sel(ev) {
			ivs = append(ivs, interval{ev.Start, ev.End})
		}
	}
	return union(ivs)
}

// Overlap reports the total virtual time during which at least one span
// matching selA and at least one span matching selB are simultaneously
// active.
func (b *Bus) Overlap(selA, selB func(*Event) bool) time.Duration {
	both := intersect(b.intervals(selA), b.intervals(selB))
	var sum time.Duration
	for _, iv := range both {
		sum += iv.hi.Sub(iv.lo)
	}
	return sum
}

// isCompute selects device-compute spans (kernels on cl queues).
func isCompute(ev *Event) bool {
	return ev.Layer == LayerCL && classify(ev.Name) == 'K'
}

// isComm selects communication spans: clMPI send/recv commands on cl queues
// plus MPI protocol spans (which also cover host-initiated communication in
// the serial and hand-optimized implementations).
func isComm(ev *Event) bool {
	if ev.Layer == LayerMPI {
		return true
	}
	if ev.Layer != LayerCL {
		return false
	}
	g := classify(ev.Name)
	return g == 'S' || g == 'R'
}

// OverlapRatio reports the fraction of communication time hidden behind
// device computation — the quantity the paper's Fig. 4 panels visualize:
// (a) serialized runs score ≈0, (c) clMPI runs approach 1 when the kernels
// are long enough to cover the halo exchange.
func (b *Bus) OverlapRatio() float64 {
	comm := b.intervals(isComm)
	commTotal := total(comm, 0, b.End())
	if commTotal <= 0 {
		return 0
	}
	return b.Overlap(isCompute, isComm).Seconds() / commTotal.Seconds()
}

// IterationOverlap reports the overlap ratio per application iteration,
// using LayerApp instants as boundaries: iteration k spans the earliest
// instant named "iter k" to the earliest instant of the next iteration (the
// last iteration extends to the trace horizon). It returns nil when no
// iteration markers were recorded.
func (b *Bus) IterationOverlap() []float64 {
	first := map[string]sim.Time{}
	var names []string
	for i := range b.events {
		ev := &b.events[i]
		if ev.Layer != LayerApp || ev.Ph != PhaseInstant {
			continue
		}
		if _, ok := first[ev.Name]; !ok {
			first[ev.Name] = ev.Start
			names = append(names, ev.Name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	bounds := make([]sim.Time, 0, len(names)+1)
	for _, n := range names {
		bounds = append(bounds, first[n])
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	bounds = append(bounds, b.End())
	comm := b.intervals(isComm)
	both := intersect(b.intervals(isCompute), comm)
	out := make([]float64, 0, len(names))
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		c := total(comm, lo, hi)
		if c <= 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, total(both, lo, hi).Seconds()/c.Seconds())
	}
	return out
}

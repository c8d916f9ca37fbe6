// Package trace is the repository's observability layer: a unified event
// bus collecting lifecycle spans from every instrumented subsystem — OpenCL
// command queues (internal/cl), MPI message protocol phases (internal/mpi),
// and link/NIC/PCIe occupancy (internal/cluster resources) — plus the views
// computed from it after a run: a virtual-time metrics report (counters,
// gauges, histograms derived from the events, so there is one source of
// truth), the ASCII Gantt timelines behind the reproduction of the paper's
// Figure 4, and Chrome trace_event JSON loadable in chrome://tracing or
// Perfetto.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cl"
	"repro/internal/sim"
)

// Span is one activity on one lane (the ASCII-timeline view of a cl-layer
// bus event).
type Span struct {
	Lane  string
	Label string
	Start sim.Time
	End   sim.Time
}

// Tracer is the command-queue view over a Bus: installed on a context with
// InstrumentContext it is the context's cl.Observer, recording every
// command of every queue as a cl-layer span and rendering them as the
// Fig. 4 ASCII timelines. The other layers (MPI protocol, cluster links)
// record onto the same bus via Instrument; the Chrome exporter and the
// metrics report see all of them. Not safe for host-level concurrency,
// which is fine: simulation processes run one at a time.
type Tracer struct {
	bus   *Bus
	edges *edgeState
}

// New creates a tracer on a fresh bus.
func New() *Tracer { return OnBus(NewBus()) }

// OnBus creates a tracer recording onto an existing bus.
func OnBus(b *Bus) *Tracer { return &Tracer{bus: b, edges: newEdgeState()} }

// Bus returns the underlying event bus.
func (t *Tracer) Bus() *Bus { return t.bus }

// Spans returns the recorded cl-layer spans in completion order.
func (t *Tracer) Spans() []Span {
	var out []Span
	for i := range t.bus.events {
		ev := &t.bus.events[i]
		if ev.Layer == LayerCL && ev.Ph == PhaseSpan {
			out = append(out, Span{Lane: ev.Lane, Label: ev.Name, Start: ev.Start, End: ev.End})
		}
	}
	return out
}

// InstrumentContext installs the tracer as the context's observer: every
// command of every queue of the context, in-order or out-of-order, becomes
// a span on a lane named after its queue, and host program order (which
// process enqueued each command, and after which observed completion) is
// recorded as EdgeHost edges. Without the latter, command chains
// serialized only by the application thread — Fig. 6's "enqueue
// everything, clFinish once" pattern — would appear causally disconnected.
func (t *Tracer) InstrumentContext(c *cl.Context) { c.SetObserver(t) }

// CommandEnqueued implements cl.Observer: remember, for the command's
// eventual span, the last completion its enqueuing process observed.
func (t *Tracer) CommandEnqueued(proc string, ev *cl.Event) {
	if dep, ok := t.edges.lastHostNode[proc]; ok {
		t.edges.enqDep[ev] = dep
	}
}

// CommandDone implements cl.Observer: it records the command's span, from
// its event's start stamp to end, and attaches the span's causal edges —
// host program order, in-order queue serialization, wait-list
// dependencies, resource charges made by the worker, and transfer
// pipelines the command ran. It runs before the command's event fires any
// dependents.
func (t *Tracer) CommandDone(lane string, inOrder bool, ev *cl.Event, waits []*cl.Event, proc string, end sim.Time) {
	es, b := t.edges, t.bus
	id := b.Span(LayerCL, lane, ev.Label(), ev.StartedAt, end)
	es.evmap[ev] = id
	if dep, ok := es.enqDep[ev]; ok {
		delete(es.enqDep, ev)
		b.Edge(EdgeHost, dep, id)
	}
	if inOrder {
		// In-order queues serialize commands; out-of-order queues order
		// only through wait lists and barriers.
		if prev, ok := es.lastCmdByLane[lane]; ok {
			b.Edge(EdgeQueue, prev, id)
		}
		es.lastCmdByLane[lane] = id
	}
	es.lastCmdByProc[proc] = id
	for _, w := range waits {
		if w == nil {
			continue
		}
		wid, ok := es.evmap[w]
		if !ok {
			// External dependency (user event, bridged MPI request): give
			// it a completion instant so the edge has a graph node.
			wid = b.Instant(LayerCL, lane, "ev "+w.Label(), w.FinishedAt)
			es.evmap[w] = wid
		}
		b.Edge(EdgeWait, wid, id)
	}
	for _, cid := range es.drainCharges(proc) {
		b.Edge(EdgeCharge, cid, id)
	}
	for _, xid := range es.pendingPipe {
		b.Edge(EdgePipe, xid, id)
	}
	es.pendingPipe = es.pendingPipe[:0]
}

// WaitReturned implements cl.Observer: a process that returns from
// Event.Wait has observed that event's completion; subsequent commands it
// enqueues are in host program order after it.
func (t *Tracer) WaitReturned(proc string, ev *cl.Event) {
	if id, ok := t.edges.evmap[ev]; ok {
		t.edges.lastHostNode[proc] = id
	}
}

// CommandGlyph exposes the command-label classification ('K' kernel,
// 'S' clmpi-send, 'R' clmpi-recv, 'D' device copy, 'P' pack/unpack,
// 0 marker, 'o' other) for analyzers outside the package, such as the
// critical-path engine's resource-class mapping.
func CommandGlyph(label string) byte { return classify(label) }

// glyphOrOther is classify with the invisible marker folded into 'o', for
// metric names.
func glyphOrOther(label string) byte {
	if g := classify(label); g != 0 {
		return g
	}
	return 'o'
}

// classify maps a command label to a single timeline glyph:
// K kernel, S send, R receive, D device↔host copy (read/write/map),
// P pack/unpack, M marker, o other.
func classify(label string) byte {
	switch {
	case strings.HasPrefix(label, "kernel"):
		return 'K'
	case strings.HasPrefix(label, "clmpi.send"):
		return 'S'
	case strings.HasPrefix(label, "clmpi.recv"):
		return 'R'
	case strings.HasPrefix(label, "read"), strings.HasPrefix(label, "write"),
		strings.HasPrefix(label, "map"), strings.HasPrefix(label, "unmap"):
		return 'D'
	case strings.HasPrefix(label, "pack"), strings.HasPrefix(label, "unpack"):
		return 'P'
	case strings.HasPrefix(label, "marker"):
		return 0 // invisible
	default:
		return 'o'
	}
}

// Render draws all queue lanes as an ASCII Gantt chart of the given width.
// Spans are drawn with their classification glyph; overlaps within a lane
// keep the later glyph. The scale line marks time in milliseconds.
func (t *Tracer) Render(width int) string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	var tmax sim.Time
	lanes := map[string][]Span{}
	for _, sp := range spans {
		lanes[sp.Lane] = append(lanes[sp.Lane], sp)
		if sp.End > tmax {
			tmax = sp.End
		}
	}
	if tmax == 0 {
		tmax = 1
	}
	names := make([]string, 0, len(lanes))
	nameW := 0
	for n := range lanes {
		names = append(names, n)
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	scale := float64(width) / float64(tmax)
	for _, n := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, sp := range lanes[n] {
			g := classify(sp.Label)
			if g == 0 {
				continue
			}
			from := int(float64(sp.Start) * scale)
			to := int(float64(sp.End) * scale)
			if to <= from {
				to = from + 1
			}
			if to > width {
				to = width
			}
			for i := from; i < to; i++ {
				row[i] = g
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, n, row)
	}
	fmt.Fprintf(&b, "%-*s  0%*s\n", nameW, "", width, fmt.Sprintf("%.2fms", float64(tmax)/1e6))
	fmt.Fprintf(&b, "%-*s  legend: K kernel, S clmpi-send, R clmpi-recv, D pcie-copy, P pack/unpack\n", nameW, "")
	return b.String()
}

// BusyTime sums the span time on one queue lane, for assertions about
// overlap.
func (t *Tracer) BusyTime(lane string) (total sim.Time) {
	for _, sp := range t.Spans() {
		if sp.Lane == lane {
			total += sp.End - sp.Start
		}
	}
	return total
}

// Utilization summarizes each queue lane's busy fraction of the traced
// interval, the quantitative companion to the Gantt chart: in the paper's
// Fig. 4 terms, high compute-lane utilization with concurrent comm-lane
// activity is the overlapped case (c), while comm time appearing as
// compute-lane idle is case (a).
func (t *Tracer) Utilization() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	var tmax sim.Time
	lanes := map[string]sim.Time{}
	for _, sp := range spans {
		lanes[sp.Lane] += sp.End - sp.Start
		if sp.End > tmax {
			tmax = sp.End
		}
	}
	if tmax == 0 {
		tmax = 1
	}
	names := make([]string, 0, len(lanes))
	nameW := 0
	for n := range lanes {
		names = append(names, n)
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-*s  busy %6.1f%%  (%v of %v)\n",
			nameW, n, 100*float64(lanes[n])/float64(tmax), lanes[n], tmax)
	}
	return b.String()
}

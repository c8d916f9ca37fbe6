package trace

import (
	"sort"
	"strconv"

	"repro/internal/mpi"
)

// Partitioned tracing: each shard of a partitioned run records onto its own
// bus (the adapters rely on the DES single-runner property, which in a
// partitioned engine holds per shard, not globally), and the per-shard buses
// are merged into one analyzable bus after the run. Every merged event gains
// a "part" argument naming its source partition, so exporters and the
// critical-path analyzer can attribute activity to shards; causal edges are
// remapped to the merged event ids. Cross-partition messages appear as
// send-side events on the source shard and match/deliver events on the
// target shard — the protocol edge between them is intentionally absent
// (neither shard's adapter sees both halves).

// InstrumentPart attaches one fresh tracer per partition of a partitioned
// world: the shard's MPI protocol events and its cluster links record onto
// that shard's private bus. Call before pw.Run, then merge the tracers'
// buses with MergeBuses once the run completes.
func InstrumentPart(pw *mpi.PartWorld) []*Tracer {
	ts := make([]*Tracer, pw.Parts())
	for i := range ts {
		ts[i] = New()
	}
	pw.SetMsgObserver(func(shard int) mpi.MsgObserver {
		return newMsgAdapter(ts[shard].bus, ts[shard].edges)
	})
	for i, t := range ts {
		pw.Shard(i).Cluster().Observe(linkAdapter{b: t.bus, es: t.edges})
	}
	return ts
}

// MergeBuses merges per-partition buses into one bus: events sorted by
// (start time, partition, record order) — so per-lane FIFO order is
// preserved for the analyzer's implicit chains — each tagged with a "part"
// argument, edges remapped to the merged ids, and the fabric plan lists
// concatenated in partition order. The merged bus's metrics follow from its
// events (Bus.Metrics), so no metric needs a merge rule.
func MergeBuses(buses ...*Bus) *Bus {
	type ref struct {
		part, idx int
	}
	var refs []ref
	for pi, b := range buses {
		for i := range b.events {
			refs = append(refs, ref{part: pi, idx: i})
		}
	}
	sort.SliceStable(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		sa, sb := buses[a.part].events[a.idx].Start, buses[b.part].events[b.idx].Start
		if sa != sb {
			return sa < sb
		}
		if a.part != b.part {
			return a.part < b.part
		}
		return a.idx < b.idx
	})
	merged := NewBus()
	remap := make([]map[int]EventID, len(buses))
	for pi := range buses {
		remap[pi] = make(map[int]EventID, len(buses[pi].events))
	}
	for _, r := range refs {
		ev := buses[r.part].events[r.idx]
		args := make([]Arg, 0, len(ev.Args)+1)
		args = append(args, ev.Args...)
		ev.Args = append(args, A("part", strconv.Itoa(r.part)))
		remap[r.part][r.idx] = EventID(len(merged.events))
		merged.events = append(merged.events, ev)
	}
	for pi, b := range buses {
		for _, e := range b.edges {
			merged.Edge(e.Kind, remap[pi][int(e.From)], remap[pi][int(e.To)])
		}
		merged.plans = append(merged.plans, b.plans...)
	}
	return merged
}

// Package obs is the repository's *host-time* observability layer: the
// wall-clock twin of the virtual-time stack in internal/trace. The trace
// package answers "where did simulated time go" and is deterministic by
// construction; this package answers "where did the host's time go" — which
// worker stalled on which channel, how long a serve job queued for a pool
// slot, whether the cache is absorbing traffic — quantities that depend on
// host scheduling and are therefore deliberately excluded from cached
// results and determinism gates.
//
// Three pieces, composable and individually optional:
//
//   - Recorder: a lock-free, always-on flight recorder. Fixed-size ring
//     buffers of small fixed-width events, written with a handful of atomic
//     stores, snapshot-able at any moment without stopping writers. Meant to
//     run in production and be dumped post-mortem (deadlock, SIGQUIT,
//     /debug/flightz).
//   - Registry: atomic counters, gauges, and fixed-bucket histograms with
//     Prometheus text exposition. It is the repository's one metrics store
//     (trace.Metrics is a report derived from a bus's events, not a store);
//     it is written from many goroutines on hot paths, so every update is a
//     lock-free atomic and scrapes never contend with the code being
//     measured.
//   - PDES: per-engine host-time attribution for the partitioned simulator —
//     wall time per shard split into simulate/merge/advert/stall, with stall
//     time attributed to the upstream channel that imposed it.
//
// Everything here observes host clocks only: attaching or detaching any of
// it cannot perturb virtual time, so the byte-identity gates of the
// partitioned engine hold with observability on or off.
package obs

import "fmt"

// Kind discriminates flight-recorder events.
type Kind uint8

const (
	// KindWindow: a shard executed one horizon window.
	// Shard = shard index, A = window start (virtual ns), B = host ns spent.
	KindWindow Kind = 1 + iota
	// KindStallBegin: a shard ran out of events below its horizon.
	// Shard = stalled shard, Ch = blocking upstream shard,
	// A = upstream floor (virtual ns), B = resulting horizon (virtual ns).
	KindStallBegin
	// KindStallEnd: the stalled shard was stepped again.
	// Shard = shard, Ch = the channel that had blocked it, A = stall host ns.
	KindStallEnd
	// KindAdvert: a shard published a clock advertisement (null message).
	// Shard = shard, A = published floor (virtual ns).
	KindAdvert
	// KindFixpoint: the all-stalled quiescence fixpoint ran.
	// A = shards freed by it (0 = the run ended instead).
	KindFixpoint
	// KindDeadlock: the engine finished with a deadlock. A = virtual ns.
	KindDeadlock
	// KindJobAdmit: serve admitted a job. A = grid points, B = 1 if the
	// content-addressed cache satisfied it without simulating.
	KindJobAdmit
	// KindJobDone: a serve job reached a terminal state.
	// A = status (0 done, 1 failed, 2 canceled), B = wall ns.
	KindJobDone
	// KindCacheHit / KindCacheMiss: one content-address lookup.
	KindCacheHit
	KindCacheMiss
	// KindSlotWait: a point waited for worker-pool slots.
	// A = wait host ns, B = slots claimed.
	KindSlotWait
	// KindPoint: a grid point finished simulating. A = host ns.
	KindPoint
)

// String names a kind for dumps.
func (k Kind) String() string {
	switch k {
	case KindWindow:
		return "window"
	case KindStallBegin:
		return "stall.begin"
	case KindStallEnd:
		return "stall.end"
	case KindAdvert:
		return "advert"
	case KindFixpoint:
		return "fixpoint"
	case KindDeadlock:
		return "deadlock"
	case KindJobAdmit:
		return "job.admit"
	case KindJobDone:
		return "job.done"
	case KindCacheHit:
		return "cache.hit"
	case KindCacheMiss:
		return "cache.miss"
	case KindSlotWait:
		return "slot.wait"
	case KindPoint:
		return "point"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one flight-recorder entry: a timestamp, a kind, two small
// integer coordinates, and two kind-specific arguments. Fixed width by
// design — recording never allocates.
type Event struct {
	// T is host nanoseconds since the recorder started.
	T int64
	// Kind discriminates the A/B payload.
	Kind Kind
	// Shard is the shard or worker the event belongs to (-1 when global).
	Shard int16
	// Ch is the peer coordinate (the upstream shard of a stall; -1 when
	// meaningless).
	Ch int16
	// A and B are kind-specific (see the Kind constants).
	A, B int64
}

// format renders one event for a dump, with kind-aware argument names.
func (e Event) format() string {
	at := fmt.Sprintf("%+12.6fms", float64(e.T)/1e6)
	who := "global"
	if e.Shard >= 0 {
		who = fmt.Sprintf("shard%d", e.Shard)
	}
	switch e.Kind {
	case KindWindow:
		return fmt.Sprintf("%s %-7s window        vt=%dns host=%dns", at, who, e.A, e.B)
	case KindStallBegin:
		return fmt.Sprintf("%s %-7s stall.begin   on=ch%d<-%d floor=%dns horizon=%dns", at, who, e.Shard, e.Ch, e.A, e.B)
	case KindStallEnd:
		return fmt.Sprintf("%s %-7s stall.end     on=ch%d<-%d stalled=%dns", at, who, e.Shard, e.Ch, e.A)
	case KindAdvert:
		return fmt.Sprintf("%s %-7s advert        floor=%dns", at, who, e.A)
	case KindFixpoint:
		return fmt.Sprintf("%s %-7s fixpoint      freed=%d", at, who, e.A)
	case KindDeadlock:
		return fmt.Sprintf("%s %-7s deadlock      vt=%dns", at, who, e.A)
	case KindJobAdmit:
		return fmt.Sprintf("%s %-7s job.admit     points=%d cached=%d", at, who, e.A, e.B)
	case KindJobDone:
		return fmt.Sprintf("%s %-7s job.done      status=%s wall=%dns", at, who, jobStatusName(e.A), e.B)
	case KindCacheHit:
		return fmt.Sprintf("%s %-7s cache.hit", at, who)
	case KindCacheMiss:
		return fmt.Sprintf("%s %-7s cache.miss", at, who)
	case KindSlotWait:
		return fmt.Sprintf("%s %-7s slot.wait     waited=%dns slots=%d", at, who, e.A, e.B)
	case KindPoint:
		return fmt.Sprintf("%s %-7s point         host=%dns", at, who, e.A)
	}
	return fmt.Sprintf("%s %-7s %s a=%d b=%d", at, who, e.Kind, e.A, e.B)
}

// Job status codes carried by KindJobDone events.
const (
	JobDone int64 = iota
	JobFailed
	JobCanceled
)

func jobStatusName(code int64) string {
	switch code {
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("status(%d)", code)
}

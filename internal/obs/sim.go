package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Sim owns the host-time metric families of the partitioned PDES engine and
// aggregates them across engine instances (a serve daemon runs many engines
// over its lifetime; a benchmark run, one per grid point). All families live
// in the Registry passed at construction, so a daemon's /metricz scrape sees
// them next to the serve families.
type Sim struct {
	reg *Registry
	rec *Recorder

	// DeadlockDump, when set before engines attach, is copied into every
	// PDES created from this aggregator: a conservative deadlock writes the
	// flight-recorder post-mortem there (a CLI points it at stderr).
	DeadlockDump io.Writer

	stallSec  *CounterVec // {shard, upstream}, seconds
	simSec    *CounterVec // {shard}, seconds in runWindow
	mergeSec  *CounterVec // {shard}, seconds draining cross-channels
	advertSec *CounterVec // {shard}, seconds publishing floors
	windows   *CounterVec // {shard}
	stalls    *CounterVec // {shard}
	adverts   *CounterVec // {shard}

	fixpoints *Counter // quiescence fixpoint rounds
	deadlocks *Counter
	workerSec *Counter // worker-seconds of engine runtime (wall × workers)

	mu       sync.Mutex
	perShard []*shardHandles
	labels   []string
}

// shardHandles caches one shard's resolved counter handles so engines touch
// only atomics after attach.
type shardHandles struct {
	sim, merge, advert       *Counter
	windows, stalls, adverts *Counter
	stallBy                  []*Counter // indexed by upstream shard
}

// NewSim registers the PDES metric families in reg and returns the
// aggregator. rec may be nil (metrics without a flight recorder).
func NewSim(reg *Registry, rec *Recorder) *Sim {
	s := &Sim{reg: reg, rec: rec}
	s.stallSec = reg.CounterVec("clmpi_pdes_stall_seconds_total",
		"Host seconds each shard spent stalled, by the upstream shard whose floor+lookahead horizon blocked it.",
		[]string{"shard", "upstream"}, Scale(1e-9))
	s.simSec = reg.CounterVec("clmpi_pdes_simulate_seconds_total",
		"Host seconds each shard spent executing horizon windows.",
		[]string{"shard"}, Scale(1e-9))
	s.mergeSec = reg.CounterVec("clmpi_pdes_merge_seconds_total",
		"Host seconds each shard spent draining cross-shard event channels.",
		[]string{"shard"}, Scale(1e-9))
	s.advertSec = reg.CounterVec("clmpi_pdes_advert_seconds_total",
		"Host seconds each shard spent publishing clock advertisements.",
		[]string{"shard"}, Scale(1e-9))
	s.windows = reg.CounterVec("clmpi_pdes_windows_total",
		"Horizon windows executed, by shard.", []string{"shard"})
	s.stalls = reg.CounterVec("clmpi_pdes_stalls_total",
		"Times a shard ran dry below its horizon and blocked, by shard.", []string{"shard"})
	s.adverts = reg.CounterVec("clmpi_pdes_adverts_total",
		"Clock advertisements (null messages) published, by shard.", []string{"shard"})
	s.fixpoints = reg.Counter("clmpi_pdes_fixpoint_rounds_total",
		"Quiescence fixpoint rounds run with every shard blocked.")
	s.deadlocks = reg.Counter("clmpi_pdes_deadlocks_total",
		"Engine runs that ended in a conservative deadlock.")
	s.workerSec = reg.Counter("clmpi_pdes_worker_seconds_total",
		"Worker-seconds of engine runtime (wall time times worker count), the denominator of occupancy.",
		Scale(1e-9))
	reg.GaugeFunc("clmpi_pdes_worker_occupancy",
		"Fraction of worker-seconds spent simulating, merging, or advertising (the rest is stall or idle).",
		func() float64 {
			den := reg.CounterValue("clmpi_pdes_worker_seconds_total")
			if den <= 0 {
				return 0
			}
			num := reg.CounterValue("clmpi_pdes_simulate_seconds_total") +
				reg.CounterValue("clmpi_pdes_merge_seconds_total") +
				reg.CounterValue("clmpi_pdes_advert_seconds_total")
			return num / den
		})
	return s
}

// Recorder returns the flight recorder shared by engines attached to this
// aggregator (nil when recording is off).
func (s *Sim) Recorder() *Recorder { return s.rec }

// handles returns (creating if needed) the cached counter handles for shard
// i of a K-shard engine. Cold path: runs at engine attach.
func (s *Sim) handles(i, k int) *shardHandles {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.perShard) <= i {
		idx := strconv.Itoa(len(s.perShard))
		s.perShard = append(s.perShard, &shardHandles{
			sim:     s.simSec.With(idx),
			merge:   s.mergeSec.With(idx),
			advert:  s.advertSec.With(idx),
			windows: s.windows.With(idx),
			stalls:  s.stalls.With(idx),
			adverts: s.adverts.With(idx),
		})
		s.labels = append(s.labels, "")
	}
	h := s.perShard[i]
	for len(h.stallBy) < k {
		h.stallBy = append(h.stallBy, s.stallSec.With(strconv.Itoa(i), strconv.Itoa(len(h.stallBy))))
	}
	return h
}

// setLabel remembers a human label for shard i ("ranks [lo,hi)") for the
// report and the dump note board.
func (s *Sim) setLabel(i int, label string) {
	s.mu.Lock()
	if i < len(s.labels) {
		s.labels[i] = label
	}
	s.mu.Unlock()
	s.rec.Note("shard%d = %s", i, label)
}

// PDES is the per-engine attribution hook set: the partitioned engine calls
// these from its step loop (one writer per shard at any instant; the engine
// mutex serializes the quiesce/finish paths). A nil *PDES is the documented
// "observability off" state; the engine guards every call site with one nil
// check so the disabled hot path costs nothing.
type PDES struct {
	sm    *Sim
	rec   *Recorder
	epoch time.Time

	// DeadlockDump, when non-nil, receives a full flight-recorder dump the
	// moment the engine declares a conservative deadlock — the post-mortem
	// is written while the evidence is still resident in the rings.
	DeadlockDump io.Writer

	shards []pdesShard
	k      int
}

// pdesShard is per-shard stall bookkeeping plus the resolved handles.
// stallStart/stallUp are atomics only because CloseStalls (engine finish)
// may race a Report from another goroutine; the engine itself is the sole
// step-time writer.
type pdesShard struct {
	stallStart atomic.Int64 // host ns since epoch; 0 = no open stall
	stallUp    atomic.Int64
	h          *shardHandles
}

// NewPDES attaches a K-shard engine to the aggregator. Handles resolve here,
// once, so the step loop performs only atomic adds and ring writes.
func NewPDES(sm *Sim, k int) *PDES {
	p := &PDES{sm: sm, k: k, epoch: time.Now(), shards: make([]pdesShard, k)}
	if sm != nil {
		p.rec = sm.rec
		p.DeadlockDump = sm.DeadlockDump
		if p.rec != nil {
			p.epoch = p.rec.Start()
		}
		for i := range p.shards {
			p.shards[i].h = sm.handles(i, k)
		}
	}
	return p
}

// NewRecorderPDES attaches an engine to a bare recorder with no metrics
// registry — the always-on production shape.
func NewRecorderPDES(rec *Recorder, k int) *PDES {
	p := &PDES{rec: rec, k: k, epoch: time.Now(), shards: make([]pdesShard, k)}
	if rec != nil {
		p.epoch = rec.Start()
	}
	return p
}

// Now reads the host clock as nanoseconds on the event timeline.
func (p *PDES) Now() int64 { return int64(time.Since(p.epoch)) }

// Recorder exposes the engine's flight recorder (nil when recording is off).
func (p *PDES) Recorder() *Recorder { return p.rec }

// SetShardLabel names shard i for reports and dumps (cold path, at world
// construction).
func (p *PDES) SetShardLabel(i int, label string) {
	if p.sm != nil {
		p.sm.setLabel(i, label)
	} else {
		p.rec.Note("shard%d = %s", i, label)
	}
}

// StepStart closes any stall left open on shard i: the shard is being
// stepped again, so the blocked interval ends now.
func (p *PDES) StepStart(i int, now int64) {
	sh := &p.shards[i]
	start := sh.stallStart.Load()
	if start == 0 {
		return
	}
	sh.stallStart.Store(0)
	up := sh.stallUp.Load()
	dt := now - start
	if sh.h != nil && int(up) < len(sh.h.stallBy) {
		sh.h.stallBy[up].Add(dt)
	}
	p.rec.RecordAt(i, now, KindStallEnd, int16(i), int16(up), dt, 0)
}

// MergeDone charges dt nanoseconds of cross-channel draining to shard i.
func (p *PDES) MergeDone(i int, dt int64) {
	if h := p.shards[i].h; h != nil {
		h.merge.Add(dt)
	}
}

// AdvertDone charges one floor publication (dt nanoseconds, new floor) to
// shard i, stamped at t.
func (p *PDES) AdvertDone(i int, floor, dt, t int64) {
	if h := p.shards[i].h; h != nil {
		h.advert.Add(dt)
		h.adverts.Add(1)
	}
	p.rec.RecordAt(i, t, KindAdvert, int16(i), -1, floor, 0)
}

// WindowDone charges one executed horizon window (virtual start vt, dt host
// nanoseconds) to shard i, stamped at t.
func (p *PDES) WindowDone(i int, vt, dt, t int64) {
	if h := p.shards[i].h; h != nil {
		h.sim.Add(dt)
		h.windows.Add(1)
	}
	p.rec.RecordAt(i, t, KindWindow, int16(i), -1, vt, dt)
}

// StallBegin marks shard i blocked at host time t on upstream shard `up`,
// whose advertised floor (plus lookahead) pinned the horizon.
func (p *PDES) StallBegin(i, up int, floor, horizon, t int64) {
	sh := &p.shards[i]
	sh.stallUp.Store(int64(up))
	sh.stallStart.Store(t)
	if sh.h != nil {
		sh.h.stalls.Add(1)
	}
	p.rec.RecordAt(i, t, KindStallBegin, int16(i), int16(up), floor, horizon)
}

// CloseStalls ends every open stall at engine finish so the per-shard
// attribution tiles the run's wall time exactly. Called with the engine
// quiescent (all workers parked or exiting).
func (p *PDES) CloseStalls() {
	now := p.Now()
	for i := range p.shards {
		p.StepStart(i, now)
	}
}

// FixpointRound notes one quiescence fixpoint pass that freed `freed`
// shards (0 means the pass ended the run instead).
func (p *PDES) FixpointRound(freed int) {
	if p.sm != nil {
		p.sm.fixpoints.Add(1)
	}
	p.rec.Record(0, KindFixpoint, -1, -1, int64(freed), 0)
}

// Deadlock records a conservative deadlock at virtual time vt with the
// engine's description of the blocked processes, and — if DeadlockDump is
// set — writes the full flight-recorder dump there immediately.
func (p *PDES) Deadlock(vt int64, blocked string) {
	if p.sm != nil {
		p.sm.deadlocks.Add(1)
	}
	p.rec.Record(0, KindDeadlock, -1, -1, vt, 0)
	p.rec.Note("deadlock at vt=%dns: %s", vt, blocked)
	if p.DeadlockDump != nil {
		fmt.Fprintf(p.DeadlockDump, "conservative deadlock at vt=%dns — flight recorder follows\n", vt)
		p.rec.WriteDump(p.DeadlockDump)
	}
}

// EngineDone closes the books on one Run: wall nanoseconds across `workers`
// workers feed the occupancy denominator, and any still-open stalls close.
func (p *PDES) EngineDone(wallNs int64, workers int) {
	p.CloseStalls()
	if p.sm != nil {
		p.sm.workerSec.Add(wallNs * int64(workers))
	}
}

// Report renders the per-shard host-time attribution table: where each
// shard's wall time went (simulate / merge / advert / stall), which upstream
// shard imposed the most stall time, and the engine-level scheduling
// counters. This is the -obs-report output.
func (s *Sim) Report(w io.Writer) error {
	s.mu.Lock()
	n := len(s.perShard)
	handles := append([]*shardHandles(nil), s.perShard...)
	labels := append([]string(nil), s.labels...)
	s.mu.Unlock()

	workerSec := s.workerSec.Value()
	if _, err := fmt.Fprintf(w, "Host-time attribution (%d shard(s), %.3f worker-seconds):\n", n, float64(workerSec)/1e9); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-5s %-18s %10s %10s %10s %10s %6s  %s\n",
		"shard", "label", "simulate", "merge", "advert", "stall", "busy%", "top stall source"); err != nil {
		return err
	}
	var totSim, totMerge, totAdvert, totStall int64
	for i, h := range handles {
		sim, merge, advert := h.sim.Value(), h.merge.Value(), h.advert.Value()
		var stall int64
		topUp, topNs := -1, int64(0)
		for up, c := range h.stallBy {
			v := c.Value()
			stall += v
			if v > topNs {
				topUp, topNs = up, v
			}
		}
		totSim += sim
		totMerge += merge
		totAdvert += advert
		totStall += stall
		wall := sim + merge + advert + stall
		busyPct := 0.0
		if wall > 0 {
			busyPct = 100 * float64(sim+merge+advert) / float64(wall)
		}
		top := "-"
		if topUp >= 0 {
			top = fmt.Sprintf("shard%d (%s)", topUp, secs(topNs))
		}
		label := labels[i]
		if label == "" {
			label = "-"
		}
		if _, err := fmt.Fprintf(w, "  %-5d %-18s %10s %10s %10s %10s %5.1f%%  %s\n",
			i, label, secs(sim), secs(merge), secs(advert), secs(stall), busyPct, top); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  %-5s %-18s %10s %10s %10s %10s\n",
		"total", "", secs(totSim), secs(totMerge), secs(totAdvert), secs(totStall)); err != nil {
		return err
	}
	var windows, stalls, adverts int64
	for _, h := range handles {
		windows += h.windows.Value()
		stalls += h.stalls.Value()
		adverts += h.adverts.Value()
	}
	_, err := fmt.Fprintf(w, "  windows=%d stalls=%d adverts=%d fixpoints=%d deadlocks=%d occupancy=%.1f%%\n",
		windows, stalls, adverts, s.fixpoints.Value(), s.deadlocks.Value(),
		100*s.reg.GaugeValue("clmpi_pdes_worker_occupancy"))
	return err
}

// TopStall returns the (shard, upstream, seconds) of the largest single
// stall-attribution cell — the first place to look when a run does not
// scale.
func (s *Sim) TopStall() (shard, upstream int, seconds float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	shard, upstream = -1, -1
	var best int64
	for i, h := range s.perShard {
		for up, c := range h.stallBy {
			if v := c.Value(); v > best {
				best, shard, upstream = v, i, up
			}
		}
	}
	return shard, upstream, float64(best) / 1e9
}

// secs renders nanoseconds as a compact seconds string for the table.
func secs(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'f', 3, 64) + "s"
}

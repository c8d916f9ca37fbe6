package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Partitioned parallel execution: one simulation split into K shards, each a
// windowed Engine running its own event loop, synchronized by an
// asynchronous conservative protocol (null-message style).
//
// The lookahead L comes from the modelled hardware: a cross-shard
// interaction cannot take effect earlier than L after it is initiated. L is
// the fabric's wire latency, the only cross-node delay the model has, so it
// is one positive value for every shard pair (the constructor panics
// otherwise). Each shard therefore advances independently to its horizon
//
//	horizon(i) = min over shards j != i of floor(j) + L
//
// where floor(j) is shard j's published clock advertisement: a lower bound
// on every instant j will ever execute again, and hence (plus L) on every
// cross event j will ever emit. Shards run continuously on a pool of worker
// goroutines — there is no global barrier and no global window — and only
// stall on the shard whose floor pins their horizon. A stalled shard whose
// events all sit at or beyond its horizon publishes its horizon as its own
// floor (the null message), which unblocks its dependents in turn; when
// every shard is simultaneously stalled the driver runs a global
// advertisement fixpoint that either frees the shard holding the earliest
// event or proves the simulation finished (or deadlocked).
//
// Deadlock freedom: with L > 0, consider any reachable state where events
// remain. The shard m holding the globally minimal floor anchor has
// floor(m) = its next event time (a relaxation through another shard would
// add L > 0 and exceed the minimum), and its horizon — min over j of
// floor(j) + L with floor(j) >= floor(m) — is then strictly greater than
// floor(m). So m can always execute, and the fixpoint always makes
// progress.
//
// Determinism: a shard executes instant t only when t < horizon, and every
// event another shard could still emit toward it lands at or beyond
// floor + L >= horizon > t — so by the time t runs, all cross events at t
// are already merged into the shard's heap, where the (at, src shard, src
// seq) total order fixes the delivery order. Each shard's event stream is a
// pure function of the event set; the worker count changes wall-clock time
// only.

// timeInf is the saturation point of virtual time: the floor of a shard
// that will never execute again.
const timeInf = Time(math.MaxInt64)

// crossTimer is one cross-shard event resident in a target shard's heap.
// fn runs in the shard's scheduler context, like an After function: it may
// use every non-blocking simulation API (fire triggers, put to queues,
// spawn) but must not block.
type crossTimer struct {
	at  Time
	src int32
	seq uint64
	fn  func()
}

// crossBefore is the (time, source shard, source sequence) total order.
func crossBefore(a, b crossTimer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// crossHeap is a hand-rolled binary min-heap of cross events, for the same
// reason timerHeap is: container/heap would box every event.
type crossHeap []crossTimer

func (h *crossHeap) push(ev crossTimer) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !crossBefore(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *crossHeap) pop() crossTimer {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = crossTimer{} // release the fn closure
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && crossBefore(s[r], s[l]) {
			m = r
		}
		if !crossBefore(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// mergeCrossEvents pushes one drained channel batch into the shard's heap.
// Sequence numbers are reconstructed as seq0+i: a channel's events are
// appended in emission order under its mutex, so the slab index recovers
// the per-channel sequence exactly.
func (e *Engine) mergeCrossEvents(src int32, seq0 uint64, at []Time, fn []func()) {
	if e.stopped {
		return
	}
	for i := range at {
		e.xheap.push(crossTimer{at: at[i], src: src, seq: seq0 + uint64(i), fn: fn[i]})
	}
}

// xchan is the channel between one ordered shard pair: a struct-of-arrays
// slab of in-flight events plus the per-channel emission counter. The
// producing shard appends under mu; the consuming shard swaps the slab out
// whole and recycles it through the Slabs free lists — steady-state cross
// delivery allocates nothing.
type xchan struct {
	mu   sync.Mutex
	at   []Time
	fn   []func()
	seq0 uint64 // per-channel sequence of at[0]
	seq  uint64 // emission counter

	ats Slabs[Time]
	fns Slabs[func()]
}

// shardState tracks a shard's position in the worker protocol.
type shardState uint8

const (
	shardRunnable shardState = iota // queued for a worker
	shardRunning                    // a worker is stepping it
	shardBlocked                    // waiting for a channel floor to advance
)

// PartitionedEngine coordinates K windowed shard engines.
type PartitionedEngine struct {
	shards []*Engine
	k      int
	la     Time    // the lookahead of every shard pair (timeInf when k == 1)
	chans  []xchan // per ordered pair, row-major [from*k+to]

	// floors[i] is shard i's published clock advertisement. Monotone
	// non-decreasing; written by the worker currently stepping shard i (or
	// by the quiescence fixpoint, which runs only when every shard is
	// stalled), read lock-free by every other shard's horizon computation.
	floors []atomic.Int64

	// Worker-pool state, guarded by mu. runq is a compacting FIFO of
	// runnable shards (each shard queued at most once).
	mu       sync.Mutex
	cond     *sync.Cond
	state    []shardState
	dirty    []bool // floor advanced while the shard was mid-step
	runq     []int
	qhead    int
	blockedN int
	stopping bool

	started bool
	err     error
	perr    any // the first process panic a worker caught, guarded by mu

	windows atomic.Uint64 // per-shard horizon windows executed
	stalls  atomic.Uint64 // shard transitions into the blocked state
	adverts atomic.Uint64 // clock advertisements published

	// obs, when non-nil, receives host-time attribution hooks (flight
	// recorder events, stall/window/advert wall time). Everything it observes
	// is host clocks — attaching it cannot perturb virtual time, so shard
	// event streams stay byte-identical with observability on or off. Nil
	// keeps the step loop free of clock reads entirely.
	obs *obs.PDES
}

// NewPartitionedEngineMatrix creates one windowed shard engine per row of
// the lookahead matrix la, where la[from][to] bounds how much later than
// shard from's clock a cross event toward shard to can land
// (cluster.LookaheadMatrix derives it from a system). The diagonal is
// ignored. Every other entry must be the same positive, finite value: a
// zero lookahead voids the conservative independence argument, and the
// engine keeps one lookahead for every shard pair, so anything else panics.
func NewPartitionedEngineMatrix(la [][]time.Duration) *PartitionedEngine {
	k := len(la)
	if k < 1 {
		panic("sim: partitioned engine needs at least one partition")
	}
	pe := &PartitionedEngine{
		k:      k,
		shards: make([]*Engine, k),
		la:     timeInf,
		chans:  make([]xchan, k*k),
		floors: make([]atomic.Int64, k),
		state:  make([]shardState, k),
		dirty:  make([]bool, k),
	}
	pe.cond = sync.NewCond(&pe.mu)
	for from := range la {
		if len(la[from]) != k {
			panic("sim: lookahead matrix is not square")
		}
		for to, d := range la[from] {
			switch {
			case from == to:
			case d <= 0:
				panic(fmt.Sprintf("sim: lookahead L[%d][%d] = %v is not positive", from, to, d))
			case Time(d) == timeInf:
				panic(fmt.Sprintf("sim: lookahead L[%d][%d] is infinite, but every shard pair communicates", from, to))
			case pe.la == timeInf:
				pe.la = Time(d)
			case Time(d) != pe.la:
				panic(fmt.Sprintf("sim: lookahead L[%d][%d] = %v differs from L[0][1] = %v, but every shard pair shares one lookahead",
					from, to, d, time.Duration(pe.la)))
			}
		}
	}
	for i := range pe.shards {
		pe.shards[i] = newWindowedEngine()
	}
	return pe
}

// SetObs attaches a host-time observability hook set (created with
// obs.NewPDES for this engine's partition count). Must be called before
// Run; nil (the default) disables all host-time capture.
func (pe *PartitionedEngine) SetObs(p *obs.PDES) {
	if pe.started {
		panic("sim: SetObs after Run")
	}
	pe.obs = p
}

// Obs returns the attached host-time hook set (nil when disabled).
func (pe *PartitionedEngine) Obs() *obs.PDES { return pe.obs }

// Parts reports the number of partitions.
func (pe *PartitionedEngine) Parts() int { return pe.k }

// Shard returns partition i's engine; simulation layers spawn processes and
// build modelled hardware on it exactly as on a serial engine.
func (pe *PartitionedEngine) Shard(i int) *Engine { return pe.shards[i] }

// Windows reports how many shard horizon windows have been executed, as a
// per-shard total. Its value depends on host scheduling — report it, but
// never compare it across runs.
func (pe *PartitionedEngine) Windows() uint64 { return pe.windows.Load() }

// Stalls reports how many times a shard ran out of executable events below
// its channel horizon and had to wait for a neighbour's advertisement.
// Host-scheduling dependent, like Windows.
func (pe *PartitionedEngine) Stalls() uint64 { return pe.stalls.Load() }

// Adverts reports how many clock advertisements (null messages) shards
// published. Host-scheduling dependent, like Windows.
func (pe *PartitionedEngine) Adverts() uint64 { return pe.adverts.Load() }

// Now reports the frontier virtual time: the maximum across shard clocks.
// After Run returns it is the simulation's end time.
func (pe *PartitionedEngine) Now() Time {
	var t Time
	for _, s := range pe.shards {
		if n := s.Now(); n > t {
			t = n
		}
	}
	return t
}

// Err reports the simulation outcome after Run has returned.
func (pe *PartitionedEngine) Err() error { return pe.err }

// satAdd is a+b saturating at timeInf (never overflowing). Both operands
// must be non-negative.
func satAdd(a, b Time) Time {
	if a >= timeInf-b {
		return timeInf
	}
	return a + b
}

// Cross schedules fn on shard `to` (another shard than `from`) at virtual
// instant `at`, tagged as originating from shard `from`. It must be called
// from simulation context on shard `from` (or during setup, before Run). fn
// runs in shard `to`'s scheduler context at instant at, in the (at, src,
// seq) order, before any process it wakes: like an After function, it must
// not block, and it reads the instant from the target shard
// (Shard(to).Now()). During Run, at must lie at or beyond floor(from)+L —
// the conservative protocol's correctness condition — and the driver
// panics otherwise.
func (pe *PartitionedEngine) Cross(from, to int, at Time, fn func()) {
	if from == to {
		panic(fmt.Sprintf("sim: cross-partition event from shard %d to itself", from))
	}
	ch := &pe.chans[from*pe.k+to]
	if pe.started {
		if floor := Time(pe.floors[from].Load()); at < satAdd(floor, pe.la) {
			panic(fmt.Sprintf("sim: cross-partition event at %v violates window horizon %v (channel %d->%d lookahead %v)",
				at, satAdd(floor, pe.la), from, to, time.Duration(pe.la)))
		}
	}
	ch.mu.Lock()
	ch.seq++
	if len(ch.at) == 0 {
		ch.seq0 = ch.seq
	}
	ch.at = append(ch.at, at)
	ch.fn = append(ch.fn, fn)
	ch.mu.Unlock()
}

// drainChannel swaps the (from, to) channel's slab out and merges it into
// shard to's heap, recycling the slab storage. Only shard to's stepping
// worker (or the quiescence fixpoint) calls it. The channel floor must be
// loaded *before* the drain: the producer appends events before publishing
// the floor that covers them, so a reader of the floor is guaranteed to see
// every event the resulting horizon admits.
func (pe *PartitionedEngine) drainChannel(from, to int) {
	ch := &pe.chans[from*pe.k+to]
	ch.mu.Lock()
	if len(ch.at) == 0 {
		ch.mu.Unlock()
		return
	}
	at, fn, seq0 := ch.at, ch.fn, ch.seq0
	ch.at, ch.fn = ch.ats.Get(), ch.fns.Get()
	ch.mu.Unlock()
	pe.shards[to].mergeCrossEvents(int32(from), seq0, at, fn)
	ch.mu.Lock()
	ch.ats.Put(at)
	ch.fns.Put(fn)
	ch.mu.Unlock()
}

// publishFloor raises shard i's clock advertisement to v and wakes every
// other stalled shard. Floors are monotone; a no-op when v
// does not exceed the current advertisement. Reports whether an
// advertisement was actually published.
func (pe *PartitionedEngine) publishFloor(i int, v Time) bool {
	if v <= Time(pe.floors[i].Load()) {
		return false
	}
	pe.floors[i].Store(int64(v))
	pe.adverts.Add(1)
	woke := false
	pe.mu.Lock()
	for to := 0; to < pe.k; to++ {
		if to == i {
			continue
		}
		switch pe.state[to] {
		case shardBlocked:
			pe.state[to] = shardRunnable
			pe.blockedN--
			pe.pushRunqLocked(to)
			woke = true
		case shardRunning:
			// The shard may have sampled floors before this publish; make
			// its worker re-step instead of stalling on stale horizons.
			pe.dirty[to] = true
		}
	}
	pe.mu.Unlock()
	if woke {
		pe.cond.Broadcast()
	}
	return true
}

// step advances shard i once: load the incoming floors (computing the
// horizon), drain the incoming channels, and — when the shard holds an
// event below the horizon — run one window up to it. Reports whether a
// window was executed.
//
// The obs hooks attribute the step's wall time: channel draining is merge
// time, runWindow is simulate time, publishFloor is advert time, and a
// return without a window opens a stall charged to the upstream shard whose
// floor pinned the horizon (the argmin of the horizon computation). All
// hooks sit behind one nil check each, so a disabled engine performs no
// clock reads here at all.
func (pe *PartitionedEngine) step(i int) bool {
	k := pe.k
	o := pe.obs
	var t0 int64
	if o != nil {
		t0 = o.Now()
		o.StepStart(i, t0)
	}
	limiting, limFloor := -1, timeInf
	for from := 0; from < k; from++ {
		if from == i {
			continue
		}
		if f := Time(pe.floors[from].Load()); f < limFloor {
			limiting, limFloor = from, f
		}
	}
	horizon := satAdd(limFloor, pe.la)
	for from := 0; from < k; from++ {
		if from != i {
			pe.drainChannel(from, i)
		}
	}
	var t1 int64
	if o != nil {
		t1 = o.Now()
		o.MergeDone(i, t1-t0)
	}
	s := pe.shards[i]
	next, ok := s.nextEventTime()
	if !ok {
		// No pending events at all: any future work arrives from a
		// neighbour, whose own advertisement already bounds it. Publishing
		// the ever-growing horizon here would let two idle shards advertise
		// each other toward infinity; staying silent instead hands the
		// no-events case to the quiescence fixpoint.
		if o != nil && limiting >= 0 {
			o.StallBegin(i, limiting, int64(limFloor), int64(horizon), t1)
		}
		return false
	}
	if next >= horizon {
		// Stalled, but holding a real event: advertise the horizon — every
		// instant this shard will ever execute is >= horizon — so
		// dependents can advance past us (the null message).
		published := pe.publishFloor(i, horizon)
		if o != nil {
			t2 := o.Now()
			if published {
				o.AdvertDone(i, int64(horizon), t2-t1, t2)
			}
			if limiting >= 0 {
				o.StallBegin(i, limiting, int64(limFloor), int64(horizon), t2)
			}
		}
		return false
	}
	published := pe.publishFloor(i, next)
	var t2 int64
	if o != nil {
		t2 = o.Now()
		if published {
			o.AdvertDone(i, int64(next), t2-t1, t2)
		}
	}
	pe.windows.Add(1)
	s.runWindow(horizon)
	var t3 int64
	if o != nil {
		t3 = o.Now()
		o.WindowDone(i, int64(next), t3-t2, t3)
	}
	published = pe.publishFloor(i, horizon)
	if o != nil {
		t4 := o.Now()
		if published {
			o.AdvertDone(i, int64(horizon), t4-t3, t4)
		}
	}
	return true
}

// pushRunqLocked appends a shard to the runnable FIFO, compacting the
// consumed prefix in place of growing (each shard is queued at most once,
// so capacity 2k never reallocates).
func (pe *PartitionedEngine) pushRunqLocked(i int) {
	if pe.qhead > 0 && len(pe.runq) == cap(pe.runq) {
		n := copy(pe.runq, pe.runq[pe.qhead:])
		pe.runq, pe.qhead = pe.runq[:n], 0
	}
	pe.runq = append(pe.runq, i)
}

func (pe *PartitionedEngine) popRunqLocked() (int, bool) {
	if pe.qhead == len(pe.runq) {
		pe.runq, pe.qhead = pe.runq[:0], 0
		return 0, false
	}
	i := pe.runq[pe.qhead]
	pe.qhead++
	return i, true
}

// worker is one host goroutine of the shard pool: claim a runnable shard,
// step it, requeue or stall it, and trigger the quiescence fixpoint when it
// was the last shard standing.
func (pe *PartitionedEngine) worker(wg *sync.WaitGroup) {
	defer wg.Done()
	pe.mu.Lock()
	for !pe.stopping {
		i, ok := pe.popRunqLocked()
		if !ok {
			pe.cond.Wait()
			continue
		}
		pe.state[i] = shardRunning
		pe.dirty[i] = false
		pe.mu.Unlock()
		ran := pe.stepCaught(i)
		pe.mu.Lock()
		if pe.stopping {
			break
		}
		if ran || pe.dirty[i] {
			pe.dirty[i] = false
			pe.state[i] = shardRunnable
			pe.pushRunqLocked(i)
			continue
		}
		pe.state[i] = shardBlocked
		pe.blockedN++
		pe.stalls.Add(1)
		if pe.blockedN == pe.k && pe.qhead == len(pe.runq) {
			pe.quiesceLocked()
		}
	}
	pe.mu.Unlock()
}

// stepCaught is step for a pool worker. A process panic out of the shard,
// which runWindow has already torn down, stops the pool; Run raises it
// again on its caller's goroutine.
func (pe *PartitionedEngine) stepCaught(i int) (ran bool) {
	defer func() {
		if r := recover(); r != nil {
			pe.mu.Lock()
			if pe.perr == nil {
				pe.perr = r
			}
			pe.finishLocked(nil)
			pe.mu.Unlock()
		}
	}()
	return pe.step(i)
}

// quiesceLocked runs when every shard is simultaneously stalled: compute
// the advertisement fixpoint from the real event anchors, re-wake every
// shard whose next event clears its resulting horizon, or — when none does
// — decide completion or deadlock. Callers hold pe.mu; with all shards
// stalled no worker touches floors or channels concurrently.
func (pe *PartitionedEngine) quiesceLocked() {
	k := pe.k
	for to := 0; to < k; to++ {
		for from := 0; from < k; from++ {
			if from != to {
				pe.drainChannel(from, to)
			}
		}
	}
	next := make([]Time, k)
	for i, s := range pe.shards {
		if n, ok := s.nextEventTime(); ok {
			next[i] = n
		} else {
			next[i] = timeInf
		}
	}
	bound := fixpointBound(next, pe.la)
	freed := 0
	for i, n := range next {
		if fl := min(n, bound); fl > Time(pe.floors[i].Load()) {
			pe.floors[i].Store(int64(fl))
			pe.adverts.Add(1)
		}
		if n < bound {
			pe.state[i] = shardRunnable
			pe.blockedN--
			pe.pushRunqLocked(i)
			freed++
		}
	}
	if pe.obs != nil {
		pe.obs.FixpointRound(freed)
	}
	if freed > 0 {
		pe.cond.Broadcast()
		return
	}
	for i := 0; i < k; i++ {
		if next[i] != timeInf {
			// Unreachable with all finite L > 0 (see the progress argument
			// in the package comment); a loud failure beats a silent hang.
			panic("sim: asynchronous conservative protocol stuck with pending events")
		}
	}
	alive := 0
	for _, s := range pe.shards {
		alive += s.aliveNonDaemons()
	}
	if alive == 0 {
		pe.finishLocked(nil)
		return
	}
	var blocked []string
	for _, s := range pe.shards {
		blocked = append(blocked, s.blocked()...)
	}
	sort.Strings(blocked)
	err := &DeadlockError{Time: pe.Now(), Blocked: blocked}
	if pe.obs != nil {
		// Every shard is parked, so closing the open stalls and dumping the
		// flight recorder here is single-writer-safe — and the evidence is
		// still resident in the rings.
		pe.obs.CloseStalls()
		pe.obs.Deadlock(int64(err.Time), strings.Join(blocked, "; "))
	}
	pe.finishLocked(err)
}

// fixpointBound solves the quiescence advertisement fixpoint
//
//	floor(i) = min(next(i), min over j != i of floor(j) + la)
//
// for the event anchors next, in closed form: with one lookahead a
// relaxation through more shards only adds more la, and the j == i term
// never beats next(i), so floor(i) = min(next(i), bound) with
// bound = min over all j of next(j) + la. The bound also decides who runs:
// shard i's resulting horizon, min over j != i of floor(j) + la, exceeds
// next(i) exactly when next(i) < bound. With no events anywhere every
// floor saturates at timeInf at once — the incremental climb two idle
// shards could otherwise feed each other is structurally impossible.
func fixpointBound(next []Time, la Time) Time {
	first := timeInf
	for _, n := range next {
		first = min(first, n)
	}
	return satAdd(first, la)
}

// finishLocked records the outcome and releases every worker.
func (pe *PartitionedEngine) finishLocked(err error) {
	pe.err = err
	pe.stopping = true
	pe.cond.Broadcast()
}

// Run drives the simulation to completion on up to `workers` host cores
// (workers <= 0 means one per partition) and returns nil on normal
// completion or a merged *DeadlockError when no shard can make progress.
// A process panic in any shard tears every shard down and continues from
// Run with its original value.
func (pe *PartitionedEngine) Run(workers int) error {
	if pe.started {
		panic("sim: PartitionedEngine.Run called twice")
	}
	pe.started = true
	defer func() {
		if r := recover(); r != nil {
			pe.shutdown(nil)
			panic(r)
		}
	}()
	k := pe.k
	if workers <= 0 || workers > k {
		workers = k
	}
	var runStart int64
	if pe.obs != nil {
		runStart = pe.obs.Now()
	}
	pe.runq = make([]int, 0, 2*k)
	for i := 0; i < k; i++ {
		pe.state[i] = shardRunnable
		pe.runq = append(pe.runq, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go pe.worker(&wg)
	}
	wg.Wait()
	if pe.perr != nil {
		panic(pe.perr)
	}
	pe.shutdown(pe.err)
	if pe.obs != nil {
		pe.obs.EngineDone(pe.obs.Now()-runStart, workers)
	}
	return pe.err
}

// shutdown tears every shard down and records the outcome.
func (pe *PartitionedEngine) shutdown(err error) {
	pe.err = err
	for _, s := range pe.shards {
		s.shutdown(err)
	}
}

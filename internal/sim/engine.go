package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Engine drives a single simulation. Create one with NewEngine, add processes
// with Spawn, then call Run. The zero Engine is not usable.
//
// Exactly one process executes at any moment, so simulation code may share
// data structures without host-level locking. The engine lock only guards
// the scheduler's own state.
type Engine struct {
	mu  sync.Mutex
	now Time
	seq uint64 // tie-breaker for simultaneous events
	// nextTimer caches the earliest pending timer so the common case — a
	// single pending timer per scheduling step — never touches the heap.
	// Invariant: while nextValid, nextTimer orders before every heap entry.
	nextTimer timerEvent
	nextValid bool
	timers    timerHeap // pending timers beyond the cached minimum
	ready     procRing  // FIFO of processes runnable at the current instant
	alive     int       // processes spawned and not yet finished
	daemons   int       // subset of alive that are daemons
	running   bool      // true while some process is executing
	cur       *Proc     // the process currently executing (valid while running)
	started   bool      // Run has been called
	stopped   bool      // simulation has ended (normally or by abort)
	err       error
	done      chan struct{}
	// live holds the unfinished processes, for diagnostics and teardown.
	// A finished process is swap-removed (Proc.idx is its slot), so nothing
	// it captured stays reachable; spawned counts every process ever made.
	live    []*Proc
	spawned int

	// Windowed mode (see RunWindow): the engine executes events strictly
	// before limit, then parks itself by signalling idle instead of
	// completing or declaring deadlock. A PartitionedEngine drives many
	// windowed engines in lockstep windows.
	windowed bool
	limit    Time
	idle     chan struct{}

	// Cross-delivery queue: closures handed over from other partitions,
	// executed in the resident xdeliver daemon's process context (so they
	// may use the full blocking API, unlike timer callbacks). Slots are
	// nilled on pop and the backing array is recycled — a per-window arena.
	xq    []func(p *Proc)
	xhead int
	xproc *Proc // parked xdeliver daemon awaiting work, if any

	// Cross-event heap: timestamped cross-partition arrivals, merged in by
	// the partition driver and delivered as a batch per instant in the
	// (at, src, seq) total order. Local timers win tied instants, so
	// delivery order is a function of the event set alone — never of when a
	// batch happened to arrive relative to local work.
	xheap crossHeap
}

// procRing is a growable FIFO of processes. Unlike the head-slicing
// `ready = ready[1:]` idiom it replaces, popped slots are nilled out and the
// backing array is reused, so finished processes are not kept reachable and
// steady-state scheduling allocates nothing.
type procRing struct {
	buf  []*Proc
	head int
	n    int
}

func (r *procRing) len() int { return r.n }

func (r *procRing) push(p *Proc) {
	if r.n == len(r.buf) {
		grown := make([]*Proc, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

func (r *procRing) pop() *Proc {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

// DeadlockError reports that the simulation can make no further progress:
// no process is runnable, no timer is pending, yet processes remain blocked.
type DeadlockError struct {
	// Time is the virtual instant at which progress stopped.
	Time Time
	// Blocked names the processes that were still waiting, annotated with
	// the label of the primitive each blocked on.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v; blocked: %s", e.Time, strings.Join(e.Blocked, ", "))
}

// abortPanic unwinds a process goroutine when the simulation is torn down.
type abortPanic struct{}

// timerEvent wakes a process, fires a trigger, or runs a callback at a
// future instant.
type timerEvent struct {
	at          Time
	seq         uint64
	proc        *Proc    // woken if non-nil
	trig        *Trigger // else fired with trigPayload if non-nil
	trigPayload any
	fn          func() // otherwise run with the engine lock held
}

// timerBefore reports whether a fires before b (time, then schedule order).
func timerBefore(a, b timerEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerHeap is a hand-rolled binary min-heap. container/heap would box
// every timerEvent through an interface on Push and Pop — one allocation per
// scheduled event, which dominates the allocation profile of large worlds —
// so the sift operations are written out against the concrete slice.
type timerHeap []timerEvent

func (h *timerHeap) push(ev timerEvent) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !timerBefore(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *timerHeap) pop() timerEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = timerEvent{} // release the fn closure
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && timerBefore(s[r], s[l]) {
			m = r
		}
		if !timerBefore(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// NewEngine returns an empty simulation.
func NewEngine() *Engine {
	return &Engine{done: make(chan struct{})}
}

// newWindowedEngine returns an engine driven window-by-window via RunWindow
// rather than to completion via Run. Only PartitionedEngine creates these.
func newWindowedEngine() *Engine {
	return &Engine{done: make(chan struct{}), windowed: true, idle: make(chan struct{}, 1)}
}

// Now reports the current virtual time. It may be called at any point,
// including before Run and after the simulation has finished.
func (e *Engine) Now() Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Spawn registers fn as a new simulated process named name. If the engine is
// already running, the process becomes runnable at the current virtual
// instant; otherwise it starts when Run is called. Processes spawned from
// within a running process execute after the spawner next blocks.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon registers a background service process. Daemons model runtime
// machinery (command-queue workers, MPI progress engines) that legitimately
// blocks forever waiting for work: the simulation completes normally once
// every non-daemon process has finished, at which point remaining daemons
// are torn down, and daemons alone never constitute a deadlock.
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

// SpawnLazy registers a process whose name is computed only when first
// observed (deadlock reports, CurrentProcName, trace adoption). Paths that
// spawn one short-lived process per message use this so the common case —
// the name is never looked at — costs no fmt.Sprintf and no string
// allocation.
func (e *Engine) SpawnLazy(nameFn func() string, fn func(p *Proc)) *Proc {
	return e.spawnProc(&Proc{nameFn: nameFn}, fn, false)
}

// SpawnStep registers a goroutine-free step process with a lazy name. It
// takes the ready-queue slot a SpawnLazy process would, but when the
// scheduler pops it, it calls step inline instead of handing off to a
// goroutine. A step keeps the rule in the package doc: it never blocks, and
// parks only through a *Step primitive, which reports false after queueing
// the process exactly where the blocking twin would have parked it; the
// step then returns and is called again, from the state it recorded, once
// the process is woken. A step that returns without parking has finished.
func (e *Engine) SpawnStep(nameFn func() string, step func(p *Proc)) *Proc {
	p := &Proc{nameFn: nameFn, step: step}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addLocked(p, false)
	return p
}

func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	return e.spawnProc(&Proc{name: name}, fn, daemon)
}

func (e *Engine) spawnProc(p *Proc, fn func(p *Proc), daemon bool) *Proc {
	e.mu.Lock()
	defer e.mu.Unlock()
	p.resume = make(chan struct{}, 1)
	e.addLocked(p, daemon)
	go e.runProc(p, fn)
	return p
}

// addLocked registers a new process and queues it to run.
func (e *Engine) addLocked(p *Proc, daemon bool) {
	if e.stopped {
		panic("sim: Spawn after simulation ended")
	}
	p.eng, p.state, p.daemon = e, stateReady, daemon
	e.alive++
	if daemon {
		e.daemons++
	}
	e.spawned++
	p.idx = len(e.live)
	e.live = append(e.live, p)
	e.ready.push(p)
}

// finishLocked retires a process: it leaves the live set and the counts.
func (e *Engine) finishLocked(p *Proc) {
	p.state = stateFinished
	e.alive--
	if p.daemon {
		e.daemons--
	}
	last := len(e.live) - 1
	moved := e.live[last]
	e.live[p.idx], moved.idx = moved, p.idx
	e.live[last] = nil
	e.live = e.live[:last]
}

// runProc is the goroutine body wrapping a process function.
func (e *Engine) runProc(p *Proc, fn func(p *Proc)) {
	<-p.resume // wait to be scheduled for the first time
	e.mu.Lock()
	aborted := e.stopped
	if !aborted {
		p.state = stateRunning
	}
	e.mu.Unlock()
	if !aborted {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(abortPanic); ok {
						return // engine teardown
					}
					panic(r)
				}
			}()
			fn(p)
		}()
	}
	e.mu.Lock()
	e.finishLocked(p)
	if e.stopped {
		if e.alive == 0 {
			e.closeDoneLocked()
		}
	} else {
		e.running = false
		e.scheduleLocked()
	}
	e.mu.Unlock()
}

// Run executes the simulation until every process has finished, returning
// nil, or until no progress is possible, returning a *DeadlockError. Run
// must be called exactly once, from a goroutine that is not itself a
// simulated process.
func (e *Engine) Run() error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		panic("sim: Run called twice")
	}
	e.started = true
	e.scheduleLocked()
	e.mu.Unlock()
	<-e.done
	return e.err
}

// CurrentProcName reports the name of the process currently executing, or ""
// when called from outside any process (scheduler callbacks, before Run, or
// after the simulation ended). Because exactly one process goroutine runs at
// a time, runtime layers use this to identify their caller without threading
// a *Proc through every API — e.g. which host thread enqueued a command.
func (e *Engine) CurrentProcName() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running && e.cur != nil {
		return e.cur.Name()
	}
	return ""
}

// runWindow executes every event strictly before limit, then returns once
// the shard is quiescent at that horizon. Only the partition driver calls
// this, and only on engines built by newWindowedEngine.
func (e *Engine) runWindow(limit Time) {
	e.mu.Lock()
	select {
	case <-e.idle: // drop a stale signal from the previous window
	default:
	}
	e.limit = limit
	e.started = true
	e.scheduleLocked()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	<-e.idle
}

// nextEventTime reports the instant of the shard's earliest pending work —
// a ready process (now), the earliest timer, or the earliest undelivered
// cross event (clamped to now) — and false when the shard is fully
// quiescent. The partition driver compares it against the shard's channel
// horizon to decide whether the shard can run.
func (e *Engine) nextEventTime() (Time, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ready.len() > 0 {
		return e.now, true
	}
	t, have := Time(0), false
	if e.nextValid {
		t, have = e.nextTimer.at, true
	} else if len(e.timers) > 0 {
		t, have = e.timers[0].at, true
	}
	if len(e.xheap) > 0 {
		ct := e.xheap[0].at
		if ct < e.now {
			ct = e.now
		}
		if !have || ct < t {
			t, have = ct, true
		}
	}
	return t, have
}

// shutdown tears the simulation down (normally when err is nil) and waits
// for every process goroutine to unwind. Idempotent; used by the partition
// driver, which owns the completion decision in windowed mode.
func (e *Engine) shutdown(err error) {
	e.mu.Lock()
	if !e.stopped {
		e.abortLocked(err)
	}
	e.mu.Unlock()
	<-e.done
}

// aliveNonDaemons reports how many non-daemon processes have not finished.
func (e *Engine) aliveNonDaemons() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.alive - e.daemons
}

// blockedLocked formats the parked non-daemon processes exactly as a serial
// deadlock report does, sorted. Callers must hold e.mu.
func (e *Engine) blockedLocked() []string {
	var blocked []string
	for _, p := range e.live {
		if p.state == stateParked && !p.daemon {
			label := p.waitLabel
			if label == "" && p.waitLblr != nil {
				label = p.waitLblr.WaitLabel()
			}
			if label == "" {
				label = "unknown"
			}
			blocked = append(blocked, fmt.Sprintf("%s (%s)", p.Name(), label))
		}
	}
	sort.Strings(blocked)
	return blocked
}

// blocked snapshots the parked non-daemon processes for a merged deadlock
// report across partitions.
func (e *Engine) blocked() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.blockedLocked()
}

// pushCross appends a cross-delivery closure and wakes the shard's xdeliver
// daemon if it is parked waiting for work. Runs in scheduler context (called
// from a scheduleFnAt timer), so it must not block.
func (e *Engine) pushCrossLocked(fn func(p *Proc)) {
	e.xq = append(e.xq, fn)
	if e.xproc != nil {
		p := e.xproc
		e.xproc = nil
		e.wakeLocked(p)
	}
}

// nextCross pops the next cross-delivery closure, parking p (the xdeliver
// daemon) until one arrives. The queue's backing array is recycled whenever
// it drains — per-window arena behavior.
func (e *Engine) nextCross(p *Proc) func(p *Proc) {
	e.mu.Lock()
	for e.xhead == len(e.xq) {
		e.xq, e.xhead = e.xq[:0], 0
		e.xproc = p
		e.park(p, "xdeliver")
	}
	fn := e.xq[e.xhead]
	e.xq[e.xhead] = nil
	e.xhead++
	e.mu.Unlock()
	return fn
}

// Err reports the simulation outcome after Run has returned.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Stats summarizes a simulation's size.
type Stats struct {
	// Procs is the total number of processes ever spawned, step processes
	// included.
	Procs int
	// Timers is the total number of timer events scheduled.
	Timers uint64
	// Now is the current virtual time.
	Now Time
}

// Stats reports engine counters; useful for sizing and overhead reporting.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{Procs: e.spawned, Timers: e.seq, Now: e.now}
}

// atLocked schedules fn to run (with the engine lock held) at instant t.
func (e *Engine) atLocked(t Time, fn func()) {
	e.seq++
	e.pushTimerLocked(timerEvent{at: t, seq: e.seq, fn: fn})
}

// atProcLocked schedules process p to wake at instant t.
func (e *Engine) atProcLocked(t Time, p *Proc) {
	e.seq++
	e.pushTimerLocked(timerEvent{at: t, seq: e.seq, proc: p})
}

// atTriggerLocked schedules trigger tr to fire with payload at instant t.
// A dedicated timer kind rather than a closure over atLocked: FireAfter is
// the per-message hot path and the closure would be one allocation each.
func (e *Engine) atTriggerLocked(t Time, tr *Trigger, payload any) {
	e.seq++
	e.pushTimerLocked(timerEvent{at: t, seq: e.seq, trig: tr, trigPayload: payload})
}

// pushTimerLocked inserts a timer, keeping the earliest event in the
// nextTimer cache. A simulation whose scheduling steps each have at most one
// pending timer — the dominant pattern for Sleep-driven process loops —
// never pays heap churn.
func (e *Engine) pushTimerLocked(ev timerEvent) {
	switch {
	case e.nextValid:
		if timerBefore(ev, e.nextTimer) {
			e.timers.push(e.nextTimer)
			e.nextTimer = ev
		} else {
			e.timers.push(ev)
		}
	case len(e.timers) == 0 || timerBefore(ev, e.timers[0]):
		e.nextTimer, e.nextValid = ev, true
	default:
		e.timers.push(ev)
	}
}

// havePendingTimerLocked reports whether any timer is pending.
func (e *Engine) havePendingTimerLocked() bool {
	return e.nextValid || len(e.timers) > 0
}

// timerDueLocked reports whether the earliest pending timer is allowed to
// fire: any pending timer in normal mode, only timers strictly before the
// window limit in windowed mode.
func (e *Engine) timerDueLocked() bool {
	if e.nextValid {
		return !e.windowed || e.nextTimer.at < e.limit
	}
	if len(e.timers) == 0 {
		return false
	}
	return !e.windowed || e.timers[0].at < e.limit
}

// earliestTimerAtLocked reports the earliest pending timer's instant.
// Callers must have checked havePendingTimerLocked (or timerDueLocked).
func (e *Engine) earliestTimerAtLocked() Time {
	if e.nextValid {
		return e.nextTimer.at
	}
	return e.timers[0].at
}

// crossDueLocked reports whether a cross-event batch may be delivered, and
// at what instant: the heap's earliest event clamped to now, if that lies
// strictly before the window limit.
func (e *Engine) crossDueLocked() (bool, Time) {
	if len(e.xheap) == 0 {
		return false, 0
	}
	at := e.xheap[0].at
	if at < e.now {
		at = e.now
	}
	if e.windowed && at >= e.limit {
		return false, 0
	}
	return true, at
}

// deliverCrossBatchLocked advances the clock to `at` and hands every cross
// event due at that instant to the xdeliver daemon, in (at, src, seq) order
// (the heap's order). Delivering the whole instant as one batch keeps the
// daemon's execution order independent of how the events were split across
// driver drains.
func (e *Engine) deliverCrossBatchLocked(at Time) {
	e.now = at
	for len(e.xheap) > 0 && e.xheap[0].at <= e.now {
		ev := e.xheap.pop()
		e.pushCrossLocked(ev.fn)
	}
}

// crossAtNowLocked reports whether an undelivered cross event is due at the
// current instant — only possible in the serial fallback, where arrivals are
// clamped to the target's clock.
func (e *Engine) crossAtNowLocked() bool {
	return len(e.xheap) > 0 && e.xheap[0].at <= e.now
}

// pushCrossEvent merges one timestamped cross event into the shard's heap.
// The partition driver calls it while draining channels (the shard idle) and
// Cross calls it directly for same-shard events (the shard's own process
// context); both orderings are deterministic.
func (e *Engine) pushCrossEvent(ev crossTimer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	e.xheap.push(ev)
}

// timerAtNowLocked reports whether the earliest pending timer would fire at
// the current instant.
func (e *Engine) timerAtNowLocked() bool {
	if e.nextValid {
		return e.nextTimer.at == e.now
	}
	return len(e.timers) > 0 && e.timers[0].at == e.now
}

// popTimerLocked removes and returns the earliest pending timer.
func (e *Engine) popTimerLocked() timerEvent {
	if e.nextValid {
		ev := e.nextTimer
		e.nextValid = false
		e.nextTimer = timerEvent{}
		return ev
	}
	return e.timers.pop()
}

// After schedules fn to run after duration d of virtual time. fn executes in
// scheduler context: it must not block, and typically fires a Trigger or
// wakes processes. It is the building block for modelled asynchronous
// hardware (a NIC delivering a message, a DMA engine completing).
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	e.atLocked(e.now.Add(d), fn)
}

// wakeLocked moves a parked process to the ready queue.
// Callers must hold e.mu.
func (e *Engine) wakeLocked(p *Proc) {
	if p.state != stateParked {
		if e.stopped && p.state == stateFinished {
			// A step process retired by teardown, woken by a goroutine
			// that releases a primitive while it unwinds.
			return
		}
		panic(fmt.Sprintf("sim: wake of process %q in state %v", p.Name(), p.state))
	}
	p.state = stateReady
	p.waitLabel = ""
	p.waitLblr = nil
	e.ready.push(p)
}

// scheduleLocked hands execution to the next runnable process, advancing the
// clock when necessary. Callers must hold e.mu and must have ensured no
// process is currently marked running (e.running == false).
func (e *Engine) scheduleLocked() {
	if e.stopped || !e.started || e.running {
		return
	}
	for {
		if e.ready.len() > 0 {
			p := e.ready.pop()
			e.running = true
			e.cur = p
			if p.step != nil {
				e.runStepLocked(p)
				continue
			}
			p.resume <- struct{}{}
			return
		}
		crossDue, crossAt := e.crossDueLocked()
		if e.timerDueLocked() && !(crossDue && crossAt < e.earliestTimerAtLocked()) {
			ev := e.popTimerLocked()
			if ev.at < e.now {
				panic("sim: timer in the past")
			}
			e.now = ev.at
			switch {
			case ev.proc != nil:
				e.wakeLocked(ev.proc)
			case ev.trig != nil:
				ev.trig.fireLocked(e.now, ev.trigPayload)
			default:
				ev.fn() // may append to e.ready or push timers
			}
			continue
		}
		if crossDue {
			e.deliverCrossBatchLocked(crossAt)
			continue
		}
		if e.windowed {
			// Window exhausted (or nothing runnable before limit): hand
			// control back to the partition driver. Completion and deadlock
			// are global properties only the driver can decide.
			select {
			case e.idle <- struct{}{}:
			default:
			}
			return
		}
		if e.alive == 0 {
			e.stopped = true
			e.closeDoneLocked()
			return
		}
		if e.alive == e.daemons {
			// Only background services remain: normal completion.
			// Tear the daemons down so no goroutine leaks.
			e.abortLocked(nil)
			return
		}
		// Processes remain but nothing can wake them: deadlock.
		e.abortLocked(&DeadlockError{Time: e.now, Blocked: e.blockedLocked()})
		return
	}
}

// runStepLocked runs one step of a step process inline, with the engine
// lock released and p marked as the running process, exactly as a goroutine
// process would run between two parks. A step that did not park has
// finished. Callers must hold e.mu and have set e.running and e.cur.
func (e *Engine) runStepLocked(p *Proc) {
	p.state = stateRunning
	e.mu.Unlock()
	p.step(p)
	e.mu.Lock()
	if p.state == stateRunning {
		e.finishLocked(p)
	}
	e.running = false
}

// abortLocked tears the simulation down. Step processes have no goroutine
// to unwind, so parked or ready ones are retired here; every other blocked
// process is resumed so it can unwind via abortPanic, guaranteeing no
// goroutine leaks. Callers must hold e.mu.
func (e *Engine) abortLocked(err error) {
	e.stopped = true
	e.err = err
	for i := len(e.live) - 1; i >= 0; i-- {
		if p := e.live[i]; p.step != nil {
			e.finishLocked(p)
		}
	}
	if e.alive == 0 {
		e.closeDoneLocked()
		return
	}
	for _, p := range e.live {
		if p.state == stateParked || p.state == stateReady {
			select {
			case p.resume <- struct{}{}:
			default:
			}
		}
	}
	// The last process to observe the stop closes done (see runProc/park).
}

// closeDoneLocked signals Run exactly once. Callers must hold e.mu.
func (e *Engine) closeDoneLocked() {
	select {
	case <-e.done:
	default:
		close(e.done)
	}
}

// parkStepLocked parks the running step process p. The caller has already
// arranged its wakeup; the scheduler moves on once the step returns, and the
// waker's wakeLocked queues p to run its step again. Callers must hold e.mu.
func (e *Engine) parkStepLocked(p *Proc, label string) {
	if p.step == nil {
		panic(fmt.Sprintf("sim: *Step primitive called by goroutine process %q", p.Name()))
	}
	p.state = stateParked
	p.waitLabel = label
}

// park blocks the calling process p until it is woken. The caller must have
// arranged a wakeup (timer, trigger waiter list, ...) while holding e.mu,
// then call park with e.mu held; park releases and reacquires it.
func (e *Engine) park(p *Proc, label string) {
	p.state = stateParked
	p.waitLabel = label
	e.running = false
	e.scheduleLocked()
	e.mu.Unlock()
	<-p.resume
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		panic(abortPanic{})
	}
	p.state = stateRunning
	// Return with e.mu held, as the caller expects.
}

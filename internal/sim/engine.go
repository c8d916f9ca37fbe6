package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Engine drives a single simulation. Create one with NewEngine, add processes
// with Spawn, then call Run. The zero Engine is not usable.
//
// Exactly one process executes at any moment, and only on the goroutine
// driving the engine, so neither simulation code nor the scheduler's own
// state needs a host-level lock.
type Engine struct {
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
	// live holds the unfinished processes, for diagnostics and teardown.
	// A finished process is swap-removed (Proc.idx is its slot), so nothing
	// it captured stays reachable; spawned counts every process ever made.
	live    []*Proc
	spawned int
	// free holds the coroutines of finished processes for reuse, by this
	// engine only: a coroutine keeps its creator's pprof labels (newCoro).
	free []*coro

	// Windowed mode (see runWindow): the engine executes events strictly
	// before limit, then returns to the partition driver instead of
	// completing or declaring deadlock. A PartitionedEngine drives many
	// windowed engines.
	windowed bool
	limit    Time

	// Cross-event heap: timestamped cross-partition arrivals, merged in by
	// the partition driver and run in scheduler context as a batch per
	// instant in the (at, src, seq) total order. Local timers win tied
	// instants, so delivery order is a function of the event set alone —
	// never of when a batch happened to arrive relative to local work. The
	// conservative protocol merges only events at or beyond the shard's
	// clock; one below it panics (crossHead).
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

// abortPanic unwinds a parked coroutine process when the simulation is torn
// down.
type abortPanic struct{}

// timerEvent wakes a process, fires a trigger, or runs a callback at a
// future instant.
type timerEvent struct {
	at          Time
	seq         uint64
	proc        *Proc    // woken if non-nil
	trig        *Trigger // else fired with trigPayload if non-nil
	trigPayload any
	fn          func() // otherwise run in scheduler context
}

// timerBefore reports whether a fires before b (time, then schedule order).
func timerBefore(a, b timerEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerHeap is a hand-rolled 4-ary min-heap in (at, seq) order.
// container/heap would box every timerEvent through an interface on Push
// and Pop — one allocation per scheduled event, which dominates the
// allocation profile of large worlds — so the sift operations are written
// out against the concrete slice. Four children per node halve the depth of
// a binary heap, and a node's children share a cache line or two, so pop
// touches fewer lines; sifting moves the hole instead of swapping.
type timerHeap []timerEvent

func (h *timerHeap) push(ev timerEvent) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !timerBefore(ev, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*h = s
}

func (h *timerHeap) pop() timerEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = timerEvent{} // release the fn closure
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if timerBefore(s[j], s[m]) {
				m = j
			}
		}
		if !timerBefore(s[m], last) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = last
	return top
}

// NewEngine returns an empty simulation.
func NewEngine() *Engine {
	return &Engine{}
}

// newWindowedEngine returns an engine driven window-by-window via runWindow
// rather than to completion via Run. Only PartitionedEngine creates these.
func newWindowedEngine() *Engine {
	return &Engine{windowed: true}
}

// Now reports the current virtual time. It may be called at any point,
// including before Run and after the simulation has finished.
func (e *Engine) Now() Time { return e.now }

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

// SpawnStep registers s as a coroutine-free step process, on the Proc p
// that the caller owns — typically embedded in the step's own state, so a
// step costs its caller one allocation. p is reset here and must not be in
// use. The process takes the ready-queue slot a SpawnLazy process would,
// but when the scheduler pops it, it calls s.Step inline instead of
// resuming a coroutine. A step keeps the rule in the package doc: it never
// blocks, and parks only through a *Step primitive, which reports false
// after queueing the process exactly where the blocking twin would have
// parked it; the step then returns and is called again, from the state it
// recorded, once the process is woken. A step that returns without parking
// has finished.
func (e *Engine) SpawnStep(s Stepper, p *Proc) {
	*p = Proc{step: s}
	e.add(p, false)
}

func (e *Engine) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	return e.spawnProc(&Proc{name: name}, fn, daemon)
}

// spawnProc registers a coroutine process. Its coroutine is made when it
// first runs (runProc), so one torn down before that costs none.
func (e *Engine) spawnProc(p *Proc, fn func(p *Proc), daemon bool) *Proc {
	p.fn = fn
	e.add(p, daemon)
	return p
}

// add registers a new process and queues it to run.
func (e *Engine) add(p *Proc, daemon bool) {
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

// finish retires a process: it leaves the live set and the counts,
// and its coroutine, if it has one, goes to the free list.
func (e *Engine) finish(p *Proc) {
	p.state = stateFinished
	p.fn = nil
	if c := p.co; c != nil {
		p.co, c.p = nil, nil
		e.free = append(e.free, c)
	}
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

// Run executes the simulation until every process has finished, returning
// nil, or until no progress is possible, returning a *DeadlockError. Run
// must be called exactly once, from a goroutine that is not itself a
// simulated process; that goroutine runs the scheduler loop and resumes
// every process. A process that panics (other than through teardown) ends
// the simulation: the engine is torn down and the panic continues from Run
// with its original value.
func (e *Engine) Run() error {
	if e.started {
		panic("sim: Run called twice")
	}
	e.started = true
	e.drive()
	return e.err
}

// drive runs the scheduler loop on the calling goroutine. A panic out of
// the loop — a process's, through its coroutine or its step, or the
// scheduler's own — tears the engine down before it continues, so no
// coroutine is left parked.
func (e *Engine) drive() {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if p := e.cur; e.running && p.co != nil {
			p.co = nil // its coroutine ended with the panic
		}
		e.running = false
		e.abort(nil)
		panic(r)
	}()
	e.schedule()
}

// CurrentProcName reports the name of the process currently executing, or ""
// when called from outside any process (scheduler callbacks, before Run, or
// after the simulation ended). Because exactly one process runs at a time,
// runtime layers use this to identify their caller without threading a
// *Proc through every API — e.g. which host thread enqueued a command.
func (e *Engine) CurrentProcName() string {
	if e.running && e.cur != nil {
		return e.cur.Name()
	}
	return ""
}

// runWindow executes every event strictly before limit on the calling
// goroutine, then returns once the shard is quiescent at that horizon. Only
// the partition driver calls this, and only on engines built by
// newWindowedEngine. A process panic tears the shard down and continues
// from here, as from Run.
func (e *Engine) runWindow(limit Time) {
	e.limit = limit
	e.started = true
	e.drive()
}

// nextEventTime reports the instant of the shard's earliest pending work —
// a ready process (now), the earliest timer, or the earliest undelivered
// cross event — and false when the shard is fully quiescent. The partition
// driver compares it against the shard's channel horizon to decide whether
// the shard can run.
func (e *Engine) nextEventTime() (Time, bool) {
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
		if ct := e.crossHead(); !have || ct < t {
			t, have = ct, true
		}
	}
	return t, have
}

// shutdown tears the simulation down (normally when err is nil), unwinding
// every parked process on the calling goroutine. Idempotent; used by the
// partition driver, which owns the completion decision in windowed mode.
func (e *Engine) shutdown(err error) {
	if !e.stopped {
		e.abort(err)
	}
}

// aliveNonDaemons reports how many non-daemon processes have not finished.
func (e *Engine) aliveNonDaemons() int { return e.alive - e.daemons }

// blocked formats the parked non-daemon processes exactly as a serial
// deadlock report does, sorted; the partition driver merges the shards'
// lists into one report.
func (e *Engine) blocked() []string {
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

// Err reports the simulation outcome after Run has returned.
func (e *Engine) Err() error { return e.err }

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
	return Stats{Procs: e.spawned, Timers: e.seq, Now: e.now}
}

// at schedules fn to run in scheduler context at instant t.
func (e *Engine) at(t Time, fn func()) {
	e.seq++
	e.pushTimer(timerEvent{at: t, seq: e.seq, fn: fn})
}

// atProc schedules process p to wake at instant t.
func (e *Engine) atProc(t Time, p *Proc) {
	e.seq++
	e.pushTimer(timerEvent{at: t, seq: e.seq, proc: p})
}

// atTrigger schedules trigger tr to fire with payload at instant t.
// A dedicated timer kind rather than a closure over at: FireAfter is
// the per-message hot path and the closure would be one allocation each.
func (e *Engine) atTrigger(t Time, tr *Trigger, payload any) {
	e.seq++
	e.pushTimer(timerEvent{at: t, seq: e.seq, trig: tr, trigPayload: payload})
}

// pushTimer inserts a timer, keeping the earliest event in the
// nextTimer cache. A simulation whose scheduling steps each have at most one
// pending timer — the dominant pattern for Sleep-driven process loops —
// never pays heap churn.
func (e *Engine) pushTimer(ev timerEvent) {
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

// timerDue reports whether the earliest pending timer is allowed to
// fire: any pending timer in normal mode, only timers strictly before the
// window limit in windowed mode.
func (e *Engine) timerDue() bool {
	if e.nextValid {
		return !e.windowed || e.nextTimer.at < e.limit
	}
	if len(e.timers) == 0 {
		return false
	}
	return !e.windowed || e.timers[0].at < e.limit
}

// earliestTimerAt reports the earliest pending timer's instant.
// Callers must have checked timerDue.
func (e *Engine) earliestTimerAt() Time {
	if e.nextValid {
		return e.nextTimer.at
	}
	return e.timers[0].at
}

// crossHead reports the instant of the earliest undelivered cross event.
// The conservative protocol never admits one below a shard's clock, so an
// event in the past is a driver bug, like a timer in the past.
func (e *Engine) crossHead() Time {
	at := e.xheap[0].at
	if at < e.now {
		panic("sim: cross event in the past")
	}
	return at
}

// crossDue reports whether a cross-event batch may be delivered, and
// at what instant: the heap's earliest event, if that lies strictly before
// the window limit.
func (e *Engine) crossDue() (bool, Time) {
	if len(e.xheap) == 0 {
		return false, 0
	}
	at := e.crossHead()
	if e.windowed && at >= e.limit {
		return false, 0
	}
	return true, at
}

// deliverCrossBatch advances the clock to `at` and runs every cross event
// due at that instant in scheduler context, in (at, src, seq) order (the
// heap's order). Running the whole instant as one batch, before any process
// it wakes, keeps the order independent of how the events were split
// across driver drains.
func (e *Engine) deliverCrossBatch(at Time) {
	e.now = at
	for len(e.xheap) > 0 && e.xheap[0].at <= e.now {
		e.xheap.pop().fn()
	}
}

// timerAtNow reports whether the earliest pending timer would fire at
// the current instant.
func (e *Engine) timerAtNow() bool {
	if e.nextValid {
		return e.nextTimer.at == e.now
	}
	return len(e.timers) > 0 && e.timers[0].at == e.now
}

// popTimer removes and returns the earliest pending timer.
func (e *Engine) popTimer() timerEvent {
	if e.nextValid {
		ev := e.nextTimer
		e.nextValid = false
		e.nextTimer = timerEvent{}
		return ev
	}
	return e.timers.pop()
}

// After schedules fn to run after duration d of virtual time. fn executes in
// scheduler context: it must not block, but it may use every non-blocking
// simulation API — fire a Trigger, FireAfter, After, Queue.Put, Spawn. It
// is the building block for modelled asynchronous hardware (a NIC
// delivering a message, a DMA engine completing).
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	if e.stopped {
		return
	}
	e.at(e.now.Add(d), fn)
}

// wake moves a parked process to the ready queue.
func (e *Engine) wake(p *Proc) {
	if p.state != stateParked {
		if e.stopped && p.state == stateFinished {
			// A process already retired by teardown, woken by one that
			// releases a primitive while it unwinds.
			return
		}
		panic(fmt.Sprintf("sim: wake of process %q in state %v", p.Name(), p.state))
	}
	p.state = stateReady
	p.waitLabel = ""
	p.waitLblr = nil
	e.ready.push(p)
}

// schedule is the engine's one scheduler loop: it resumes the next
// runnable process, advancing the clock when necessary, until the
// simulation ends or, in windowed mode, the window is exhausted.
func (e *Engine) schedule() {
	for !e.stopped {
		if e.ready.len() > 0 {
			e.runProc(e.ready.pop())
			continue
		}
		crossDue, crossAt := e.crossDue()
		if e.timerDue() && !(crossDue && crossAt < e.earliestTimerAt()) {
			ev := e.popTimer()
			if ev.at < e.now {
				panic("sim: timer in the past")
			}
			e.now = ev.at
			switch {
			case ev.proc != nil:
				e.wake(ev.proc)
			case ev.trig != nil:
				ev.trig.Fire(ev.trigPayload)
			default:
				ev.fn() // may append to e.ready or push timers
			}
			continue
		}
		if crossDue {
			e.deliverCrossBatch(crossAt)
			continue
		}
		if e.windowed {
			// Window exhausted (or nothing runnable before limit): hand
			// control back to the partition driver. Completion and deadlock
			// are global properties only the driver can decide.
			return
		}
		if e.alive == e.daemons {
			// Every process has finished, or only background services
			// remain: normal completion. Tear the daemons down so no
			// coroutine leaks.
			e.abort(nil)
			return
		}
		// Processes remain but nothing can wake them: deadlock.
		e.abort(&DeadlockError{Time: e.now, Blocked: e.blocked()})
		return
	}
}

// runProc runs p until it parks or finishes: a step process's step
// inline, and a coroutine process by resuming its coroutine. A process that
// did not park has finished.
func (e *Engine) runProc(p *Proc) {
	e.running, e.cur = true, p
	p.state = stateRunning
	if p.step != nil {
		p.step.Step(p)
	} else {
		c := p.co
		if c == nil {
			if n := len(e.free); n > 0 {
				c = e.free[n-1]
				e.free[n-1] = nil
				e.free = e.free[:n-1]
				c.p = p
			} else {
				c = newCoro(p)
			}
			p.co = c
		}
		c.next()
	}
	e.running = false
	if p.state == stateRunning {
		e.finish(p)
	}
}

// abort ends the simulation with err and tears it down. A coroutine
// process that has started is resumed once more, so it unwinds through
// abortPanic (running its deferred calls) and finishes; every other
// process — a step, or one that never ran — is simply retired. Then the
// pooled coroutines are stopped, so no goroutine outlives the run.
func (e *Engine) abort(err error) {
	e.stopped = true
	e.err = err
	for n := len(e.live); n > 0; n = len(e.live) {
		if p := e.live[n-1]; p.co != nil {
			e.runProc(p)
		} else {
			e.finish(p)
		}
	}
	for i, c := range e.free {
		c.stop()
		e.free[i] = nil
	}
	e.free = nil
}

// parkStep parks the running step process p. The caller has already
// arranged its wakeup; the scheduler moves on once the step returns, and the
// waker's wake queues p to run its step again.
func (e *Engine) parkStep(p *Proc, label string) {
	if p.step == nil {
		panic(fmt.Sprintf("sim: *Step primitive called by coroutine process %q", p.Name()))
	}
	p.state = stateParked
	p.waitLabel = label
}

// park blocks the calling coroutine process p until it is woken. The
// caller must have arranged a wakeup (timer, trigger waiter list, ...);
// park yields to the scheduler loop and returns once the loop resumes p.
// Resumed by teardown, or called after it, park unwinds p through
// abortPanic instead.
func (e *Engine) park(p *Proc, label string) {
	if p.co == nil {
		panic(fmt.Sprintf("sim: blocking primitive called by step process %q", p.Name()))
	}
	if !e.stopped {
		p.state = stateParked
		p.waitLabel = label
		p.co.yield(struct{}{})
	}
	if e.stopped {
		panic(abortPanic{})
	}
}

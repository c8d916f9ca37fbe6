package sim

import (
	"fmt"
	"time"
)

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateReady procState = iota // queued to run at the current instant
	stateRunning
	stateParked // blocked on a primitive, wakeup arranged elsewhere
	stateFinished
)

func (s procState) String() string {
	switch s {
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateParked:
		return "parked"
	case stateFinished:
		return "finished"
	default:
		return fmt.Sprintf("procState(%d)", int(s))
	}
}

// Labeler supplies a wait label on demand. Primitives whose labels embed
// formatted identity (request triggers) implement it so the label string is
// only built if a deadlock report actually needs it.
type Labeler interface {
	WaitLabel() string
}

// Stepper is the body of a step process (SpawnStep). Step advances the
// process from the state it recorded until it parks through a *Step
// primitive or finishes; StepName names the process, and is called only if
// the name is observed.
type Stepper interface {
	Step(p *Proc)
	StepName() string
}

// Proc is the handle a simulated process uses to interact with virtual time.
// A Proc is only valid inside the process function it was passed to; sharing
// it with another process is a bug.
type Proc struct {
	eng       *Engine
	name      string
	nameFn    func() string // lazy name (SpawnLazy); resolved on first Name
	fn        func(p *Proc) // coroutine processes: the body, until it finishes
	co        *coro         // coroutine processes: created on first resume
	step      Stepper       // step processes only (SpawnStep)
	idx       int           // slot in the engine's live set
	state     procState
	daemon    bool
	waitLabel string  // what the process is blocked on, for deadlock reports
	waitLblr  Labeler // lazy fallback when waitLabel is empty
}

// Name reports the name given at Spawn, resolving a lazy name on first use.
// Safe wherever p is observable: either the process itself calls it, or the
// scheduler does while no process is executing.
func (p *Proc) Name() string {
	if p.name == "" {
		switch {
		case p.nameFn != nil:
			p.name = p.nameFn()
			p.nameFn = nil
		case p.step != nil:
			p.name = p.step.StepName()
		}
	}
	return p.name
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep blocks the process for duration d of virtual time. Negative and zero
// durations yield the processor to other ready processes at the same instant
// without advancing the clock for this process.
func (p *Proc) Sleep(d time.Duration) {
	if !p.sleep(d) {
		// A sleeping process always has its wakeup timer pending, so it can
		// never appear in a deadlock report; a constant label avoids
		// formatting on the hot path.
		p.eng.park(p, "sleep")
	}
}

// SleepStep is Sleep for a step process: it reports true if the sleep was a
// no-op, or arms the same wakeup timer, parks p and reports false.
func (p *Proc) SleepStep(d time.Duration) bool {
	if p.sleep(d) {
		return true
	}
	p.eng.parkStep(p, "sleep")
	return false
}

// sleep reports true when a sleep of d is a no-op, and otherwise arms p's
// wakeup timer.
func (p *Proc) sleep(d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	e := p.eng
	if d == 0 && !e.stopped && e.ready.len() == 0 && !e.timerAtNow() {
		// Nothing else can run at this instant, so the yield is a no-op:
		// return without a round trip through the scheduler loop. Event
		// order is unchanged — any process or timer due now takes the slow
		// path.
		return true
	}
	e.atProc(e.now.Add(d), p)
	return false
}

// Yield lets every other process that is ready at the current instant run
// before this one continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Spawn starts a child process. It is shorthand for p.Engine().Spawn; the
// child becomes runnable once p next blocks.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.eng.Spawn(name, fn)
}

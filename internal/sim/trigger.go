package sim

import "time"

// Trigger is a one-shot condition in virtual time: processes Wait on it and
// all of them resume once Fire is called. Firing an already-fired trigger is
// a harmless no-op, and waiting on a fired trigger returns immediately —
// together these make triggers convenient completion flags for modelled
// hardware events (a command finishing, a message arriving).
//
// A Trigger may carry an arbitrary payload set at Fire time, so it doubles
// as a single-assignment future.
//
// The hot paths are allocation-conscious: the deadlock label is formatted
// only when a report needs it, the first waiter and the first callback live
// in inline slots (almost every trigger has at most one of each), and a
// zero Trigger can be readied in place with Init/InitLazy so owners can
// embed it instead of allocating separately.
type Trigger struct {
	eng     *Engine
	label   string
	lblr    Labeler // lazy label source when label is empty
	fired   bool
	firedAt Time
	payload any
	w0      *Proc   // first waiter
	waiters []*Proc // overflow waiters
	// callbacks run in scheduler context when the trigger fires; they must
	// not block. Used for OpenCL-style event callbacks.
	cb0       func(at Time, payload any)
	callbacks []func(at Time, payload any)
	// chained triggers fire (same instant, same payload) right after the
	// callbacks. Dedicated slots rather than closures over the callback list:
	// chaining is the per-message hot path, and the inline slot makes it
	// allocation-free.
	chain0 *Trigger
	chains []*Trigger
}

// NewTrigger creates an unfired trigger. The label appears in deadlock
// reports of processes blocked on it.
func NewTrigger(e *Engine, label string) *Trigger {
	t := &Trigger{}
	t.Init(e, label)
	return t
}

// NewTriggerLazy creates an unfired trigger whose deadlock label is supplied
// by l only if a report needs it, so per-message triggers never pay string
// formatting on the happy path.
func NewTriggerLazy(e *Engine, l Labeler) *Trigger {
	t := &Trigger{}
	t.InitLazy(e, l)
	return t
}

// Init readies a zero Trigger in place, for owners that embed one in a
// larger allocation. It must be called before any other method, and the
// trigger must not be copied afterwards.
func (t *Trigger) Init(e *Engine, label string) {
	t.eng, t.label = e, label
}

// InitLazy is Init with a lazily formatted deadlock label.
func (t *Trigger) InitLazy(e *Engine, l Labeler) {
	t.eng, t.lblr = e, l
}

// WaitLabel implements Labeler: the deadlock-report annotation of a process
// blocked on this trigger.
func (t *Trigger) WaitLabel() string {
	if t.lblr != nil {
		return t.lblr.WaitLabel()
	}
	return "trigger " + t.label
}

// Fired reports whether the trigger has fired.
func (t *Trigger) Fired() bool { return t.fired }

// FiredAt returns the virtual instant the trigger fired, valid only if Fired.
func (t *Trigger) FiredAt() Time { return t.firedAt }

// Payload returns the value passed to Fire (nil before firing).
func (t *Trigger) Payload() any { return t.payload }

// Fire completes the trigger at the current virtual instant, waking all
// waiters, then running callbacks and firing chained triggers in
// registration order. Only the first call has any effect. It never blocks,
// so it may be called from a process or from scheduler context.
func (t *Trigger) Fire(payload any) {
	if t.fired {
		return
	}
	at := t.eng.now
	t.fired = true
	t.firedAt = at
	t.payload = payload
	if p := t.w0; p != nil {
		t.w0 = nil
		t.eng.wake(p)
	}
	for _, p := range t.waiters {
		t.eng.wake(p)
	}
	t.waiters = nil
	cb := t.cb0
	cbs := t.callbacks
	t.cb0, t.callbacks = nil, nil
	if cb != nil {
		cb(at, payload)
	}
	for _, cb := range cbs {
		cb(at, payload)
	}
	ch := t.chain0
	chs := t.chains
	t.chain0, t.chains = nil, nil
	if ch != nil {
		ch.Fire(payload)
	}
	for _, ch := range chs {
		ch.Fire(payload)
	}
}

// FireAfter completes the trigger d of virtual time from now. Like Fire it
// never blocks, so scheduler-context code (an OnFire callback, an After
// function) may call it too.
func (t *Trigger) FireAfter(d time.Duration, payload any) {
	e := t.eng
	if e.stopped || t.fired {
		return
	}
	e.atTrigger(e.now.Add(d), t, payload)
}

// Wait blocks process p until the trigger fires and returns its payload.
func (t *Trigger) Wait(p *Proc) any {
	if t.fired {
		return t.payload
	}
	if t.w0 == nil && len(t.waiters) == 0 {
		t.w0 = p
	} else {
		t.waiters = append(t.waiters, p)
	}
	p.waitLblr = t
	t.eng.park(p, "")
	return t.payload
}

// OnFire registers fn to run when the trigger fires (immediately if it
// already has). fn runs in scheduler context, or in the registering process
// if the trigger has already fired: it must not block, but it may use every
// non-blocking simulation API — fire or chain triggers, FireAfter, After,
// Queue.Put, Spawn. To block on completion, spawn a process that Waits.
func (t *Trigger) OnFire(fn func(at Time, payload any)) {
	if t.fired {
		fn(t.firedAt, t.payload)
		return
	}
	if t.cb0 == nil && len(t.callbacks) == 0 {
		t.cb0 = fn
	} else {
		t.callbacks = append(t.callbacks, fn)
	}
}

// Chain arranges for other to fire (with the same payload) at the instant t
// fires, after t's OnFire callbacks. If t has already fired, other fires
// immediately. Chaining costs no allocation in the common one-chain case.
func (t *Trigger) Chain(other *Trigger) {
	if t.fired {
		other.Fire(t.payload)
		return
	}
	if t.chain0 == nil && len(t.chains) == 0 {
		t.chain0 = other
	} else {
		t.chains = append(t.chains, other)
	}
}

// WaitAll blocks p until every trigger in ts has fired. A nil slice returns
// immediately.
func WaitAll(p *Proc, ts ...*Trigger) {
	for _, t := range ts {
		if t != nil {
			t.Wait(p)
		}
	}
}

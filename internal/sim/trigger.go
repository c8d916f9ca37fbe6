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
// The hot paths are allocation-conscious. The deadlock label is a Labeler,
// resolved only when a report needs it; a constant Label or an owner that
// labels itself costs nothing. The first waiter, the first callback and the
// first chained trigger live in inline slots (almost every trigger has at
// most one of each); the rest share one lazily allocated overflow record.
// A zero Trigger can be readied in place with Init, so owners can embed it
// instead of allocating separately.
type Trigger struct {
	eng     *Engine
	lbl     Labeler
	fired   bool
	firedAt Time
	payload any
	w0      *Proc // first waiter
	// cb0 runs in scheduler context when the trigger fires; it must not
	// block. Used for OpenCL-style event callbacks.
	cb0 func(at Time, payload any)
	// chain0 fires (same instant, same payload) right after the callbacks.
	// A dedicated slot rather than a closure over the callback list:
	// chaining is a per-message hot path, and the slot makes it
	// allocation-free.
	chain0 *Trigger
	more   *triggerMore
}

// triggerMore holds a trigger's second and later waiters, callbacks and
// chained triggers, in registration order after the inline slots.
type triggerMore struct {
	waiters   []*Proc
	callbacks []func(at Time, payload any)
	chains    []*Trigger
}

// Label is a trigger's deadlock label given as a plain string. A constant
// Label converts to a Labeler without allocating.
type Label string

// WaitLabel implements Labeler.
func (l Label) WaitLabel() string { return "trigger " + string(l) }

// NewTrigger creates an unfired trigger. The label appears in deadlock
// reports of processes blocked on it.
func NewTrigger(e *Engine, label string) *Trigger {
	return NewTriggerLazy(e, Label(label))
}

// NewTriggerLazy creates an unfired trigger whose deadlock label is supplied
// by l only if a report needs it, so per-message triggers never pay string
// formatting on the happy path.
func NewTriggerLazy(e *Engine, l Labeler) *Trigger {
	t := &Trigger{}
	t.Init(e, l)
	return t
}

// Init readies a zero Trigger in place, for owners that embed one in a
// larger allocation. It must be called before any other method, and the
// trigger must not be copied afterwards.
func (t *Trigger) Init(e *Engine, l Labeler) {
	t.eng, t.lbl = e, l
}

// WaitLabel implements Labeler: the deadlock-report annotation of a process
// blocked on this trigger.
func (t *Trigger) WaitLabel() string {
	if t.lbl == nil {
		return "trigger "
	}
	return t.lbl.WaitLabel()
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
	var m triggerMore
	if t.more != nil {
		m, t.more = *t.more, nil
	}
	if p := t.w0; p != nil {
		t.w0 = nil
		t.eng.wake(p)
	}
	for _, p := range m.waiters {
		t.eng.wake(p)
	}
	if cb := t.cb0; cb != nil {
		t.cb0 = nil
		cb(at, payload)
	}
	for _, cb := range m.callbacks {
		cb(at, payload)
	}
	if ch := t.chain0; ch != nil {
		t.chain0 = nil
		ch.Fire(payload)
	}
	for _, ch := range m.chains {
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

// overflow returns the trigger's overflow record, allocating it on first use.
func (t *Trigger) overflow() *triggerMore {
	if t.more == nil {
		t.more = &triggerMore{}
	}
	return t.more
}

// Wait blocks process p until the trigger fires and returns its payload.
func (t *Trigger) Wait(p *Proc) any {
	if t.fired {
		return t.payload
	}
	if t.w0 == nil {
		t.w0 = p
	} else {
		m := t.overflow()
		m.waiters = append(m.waiters, p)
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
	if t.cb0 == nil {
		t.cb0 = fn
	} else {
		m := t.overflow()
		m.callbacks = append(m.callbacks, fn)
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
	if t.chain0 == nil {
		t.chain0 = other
	} else {
		m := t.overflow()
		m.chains = append(m.chains, other)
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

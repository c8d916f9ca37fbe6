package cl

import (
	"repro/internal/sim"
)

// ExecStatus is the execution state of a command, matching OpenCL's
// CL_QUEUED / CL_SUBMITTED / CL_RUNNING / CL_COMPLETE progression.
type ExecStatus int

const (
	Complete ExecStatus = iota
	Running
	Submitted
	Queued
)

func (s ExecStatus) String() string {
	switch s {
	case Complete:
		return "CL_COMPLETE"
	case Running:
		return "CL_RUNNING"
	case Submitted:
		return "CL_SUBMITTED"
	case Queued:
		return "CL_QUEUED"
	default:
		return "CL_ERROR"
	}
}

// Event represents the status of one enqueued command (or, for user events,
// an externally controlled condition). Any command may name events in its
// wait list; the command does not start until all of them are complete —
// this is the dependency mechanism the clMPI extension reuses to order
// inter-node communication against kernels (§IV-B of the paper).
type Event struct {
	ctx   *Context
	label string
	user  bool

	status ExecStatus
	err    error // non-nil if the command terminated abnormally

	// Profiling timestamps, as CL_PROFILING_COMMAND_*.
	QueuedAt    sim.Time
	SubmittedAt sim.Time
	StartedAt   sim.Time
	FinishedAt  sim.Time

	done *sim.Trigger
}

func newEvent(ctx *Context, label string, user bool) *Event {
	ev := &Event{
		ctx:    ctx,
		label:  label,
		user:   user,
		status: Queued,
	}
	ev.done = sim.NewTriggerLazy(ctx.eng, ev)
	now := ctx.eng.Now()
	ev.QueuedAt = now
	return ev
}

// Label reports the human-readable command name, used in traces.
func (ev *Event) Label() string { return ev.label }

// WaitLabel implements sim.Labeler: the deadlock-report annotation of a
// process blocked on this event.
func (ev *Event) WaitLabel() string { return "trigger event " + ev.label }

// Status reports the event's current execution status.
func (ev *Event) Status() ExecStatus { return ev.status }

// Err reports the command's failure, if any, once the event is complete.
func (ev *Event) Err() error { return ev.err }

// IsUser reports whether this is a user event.
func (ev *Event) IsUser() bool { return ev.user }

// markSubmitted and markRunning stamp the profiling timeline.
func (ev *Event) markSubmitted(at sim.Time) {
	ev.status = Submitted
	ev.SubmittedAt = at
}

func (ev *Event) markRunning(at sim.Time) {
	ev.status = Running
	ev.StartedAt = at
}

// complete finishes the event, releasing all waiters. err non-nil records
// abnormal termination.
func (ev *Event) complete(at sim.Time, err error) {
	ev.status = Complete
	ev.err = err
	ev.FinishedAt = at
	ev.done.Fire(err)
}

// Wait blocks process p until the event completes and returns the command's
// error, if any.
func (ev *Event) Wait(p *sim.Proc) error {
	ev.done.Wait(p)
	if o := ev.ctx.obs; o != nil {
		o.WaitReturned(p.Name(), ev)
	}
	return ev.err
}

// Done exposes the completion trigger so other runtimes (the clMPI
// extension's progress thread, the tracer) can chain on it.
func (ev *Event) Done() *sim.Trigger { return ev.done }

// OnComplete registers a callback run at completion (or immediately if
// already complete). The callback runs in scheduler context: it must not
// block, but it may use any non-blocking simulation API (fire a trigger,
// schedule with After, put to a queue). To block on completion, spawn a
// process that Waits.
func (ev *Event) OnComplete(fn func(at sim.Time, err error)) {
	ev.done.OnFire(func(at sim.Time, payload any) {
		e, _ := payload.(error)
		fn(at, e)
	})
}

// WaitForEvents blocks p until every event in evs has completed, returning
// the first error encountered (in slice order). Nil events are ignored,
// mirroring how a zero-length wait list is legal in OpenCL.
func WaitForEvents(p *sim.Proc, evs ...*Event) error {
	var first error
	for _, ev := range evs {
		if ev == nil {
			continue
		}
		if err := ev.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NewEventFromTrigger returns an event that completes when the trigger
// fires. If the trigger's payload is an error it becomes the event's error.
// This is the bridge the clMPI extension uses to expose MPI_Request
// completion as an OpenCL event (clCreateEventFromMPIRequest, §IV-C of the
// paper).
func (c *Context) NewEventFromTrigger(label string, t *sim.Trigger) *Event {
	ev := newEvent(c, label, false)
	t.OnFire(func(at sim.Time, payload any) {
		err, _ := payload.(error)
		ev.status = Complete
		ev.err = err
		ev.SubmittedAt = ev.QueuedAt
		ev.StartedAt = ev.QueuedAt
		ev.FinishedAt = at
	})
	t.Chain(ev.done)
	return ev
}

// CreateUserEvent returns an event whose completion is controlled by the
// caller through SetStatus, like clCreateUserEvent. The clMPI paper's
// reference implementation builds its communication-command events from
// these (§V-A); our extension does the same.
func (c *Context) CreateUserEvent(label string) *Event {
	return newEvent(c, label, true)
}

// SetStatus completes a user event. err non-nil marks abnormal termination,
// like setting a negative execution status in OpenCL.
func (ev *Event) SetStatus(err error) error {
	if !ev.user {
		return ErrEventNotUserMade
	}
	now := ev.ctx.eng.Now()
	if ev.status == Complete {
		return ErrInvalidEvent // already completed; OpenCL forbids a second set
	}
	ev.markSubmitted(now)
	ev.markRunning(now)
	ev.complete(now, err)
	return nil
}

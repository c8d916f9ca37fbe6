package cl

import (
	"fmt"

	"repro/internal/sim"
)

// command is one unit of work flowing through a queue.
type command struct {
	ev    *Event
	waits []*Event
	// run performs the command on a worker process of its queue. It may
	// block in virtual time (PCIe transfers, kernel execution, and — for
	// the clMPI extension — inter-node communication).
	run func(p *sim.Proc) error
}

// CommandQueue is a cl_command_queue. Its execution mode is fixed when it is
// created, as with CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE:
//
//   - In order (NewQueue): commands execute one at a time in enqueue order,
//     each additionally gated on its event wait list. A dedicated worker
//     process models the driver thread that feeds the device, which is
//     exactly the asynchrony the paper exploits: the host thread enqueues
//     and moves on.
//   - Out of order (NewOutOfOrderQueue): a command becomes eligible as soon
//     as its wait list completes, with no implicit ordering between
//     commands; explicit ordering uses events, markers or barriers. Each
//     command runs on its own worker process. The device's compute unit and
//     PCIe links still serialize the hardware stages, so out-of-order
//     execution reorders scheduling, not physics. The paper's applications
//     use in-order queues, but the extension's commands work on either
//     mode: one out-of-order queue can express the Fig. 6 dataflow that
//     needs three in-order queues.
type CommandQueue struct {
	ctx        *Context
	label      string
	outOfOrder bool
	released   bool
	// err is the first error of a command completed since the last Finish.
	err error

	// cmds feeds the in-order worker; last is the event of the command
	// most recently put to it.
	cmds *sim.Queue[*command]
	last *Event

	// Out-of-order bookkeeping. seq numbers the worker processes;
	// barrier, when non-nil, is implicitly appended to the wait list of
	// every subsequently enqueued command (EnqueueBarrier semantics);
	// outstanding holds the events of enqueued commands not yet known to
	// be complete, for Finish and markers.
	seq         int
	barrier     *Event
	outstanding []*Event
}

// NewQueue creates an in-order command queue on the context's device.
func (c *Context) NewQueue(label string) *CommandQueue {
	q := &CommandQueue{
		ctx:   c,
		label: label,
		cmds:  sim.NewQueue[*command](c.eng, "clq-"+label),
	}
	c.eng.SpawnDaemon("clqueue-"+label, q.loop)
	return q
}

// NewOutOfOrderQueue creates an out-of-order command queue on the context's
// device.
func (c *Context) NewOutOfOrderQueue(label string) *CommandQueue {
	return &CommandQueue{ctx: c, label: label, outOfOrder: true}
}

// Label reports the queue's diagnostic name.
func (q *CommandQueue) Label() string { return q.label }

// Context returns the owning context.
func (q *CommandQueue) Context() *Context { return q.ctx }

// loop is the in-order worker process. In-order semantics: previous
// commands have already completed because this loop is serial; each
// command's wait list adds cross-queue and user-event dependencies.
func (q *CommandQueue) loop(p *sim.Proc) {
	for {
		cmd, ok := q.cmds.Get(p)
		if !ok {
			return
		}
		q.execute(p, cmd)
	}
}

// execute runs one command's lifecycle on worker process p, in either mode:
// submitted, wait list, running, run, report, complete. A failed command's
// error is kept for the next Finish.
func (q *CommandQueue) execute(p *sim.Proc, cmd *command) {
	cmd.ev.markSubmitted(p.Now())
	err := WaitForEvents(p, cmd.waits...)
	if err != nil {
		// A failed dependency terminates the command abnormally,
		// mirroring OpenCL's negative-status propagation.
		err = fmt.Errorf("%w: dependency failed: %v", ErrExecStatusError, err)
	} else {
		cmd.ev.markRunning(p.Now())
		err = cmd.run(p)
		if o := q.ctx.obs; o != nil {
			o.CommandDone(q.label, !q.outOfOrder, cmd.ev, cmd.waits, p.Name(), p.Now())
		}
	}
	if err != nil && q.err == nil {
		q.err = err
	}
	cmd.ev.complete(p.Now(), err)
}

// Enqueue submits a custom command. label names it in traces; waits is the
// event wait list (nil entries allowed); run executes on a worker process
// of the queue. The returned event completes when run returns. This is the
// extension point the clMPI runtime uses for its inter-node communication
// commands, keeping them first-class citizens of the OpenCL execution model
// (§IV of the paper).
func (q *CommandQueue) Enqueue(label string, waits []*Event, run func(p *sim.Proc) error) (*Event, error) {
	if q.released {
		return nil, ErrQueueShutDown
	}
	c := q.ctx
	ev := newEvent(c, label, false)
	if c.obs != nil {
		if pn := c.eng.CurrentProcName(); pn != "" {
			c.obs.CommandEnqueued(pn, ev)
		}
	}
	cmd := &command{ev: ev, waits: append([]*Event(nil), waits...), run: run}
	if !q.outOfOrder {
		q.cmds.Put(cmd)
		q.last = ev
		return ev, nil
	}
	if q.barrier != nil {
		cmd.waits = append(cmd.waits, q.barrier)
	}
	q.seq++
	q.outstanding = append(q.outstanding, ev)
	c.eng.SpawnDaemon(fmt.Sprintf("clooq-%s-%d", q.label, q.seq), func(p *sim.Proc) {
		q.execute(p, cmd)
	})
	return ev, nil
}

// pending prunes completed events from the out-of-order outstanding list
// and returns a copy of the remainder.
func (q *CommandQueue) pending() []*Event {
	live := q.outstanding[:0]
	for _, ev := range q.outstanding {
		if ev.Status() != Complete {
			live = append(live, ev)
		}
	}
	q.outstanding = live
	return append([]*Event(nil), live...)
}

// EnqueueMarker submits a no-op command whose event completes when the
// events in waits and every command enqueued before it have completed
// (clEnqueueMarkerWithWaitList). An out-of-order queue orders nothing by
// itself, so there a non-empty wait list is all the marker waits for and an
// empty one means every outstanding command.
func (q *CommandQueue) EnqueueMarker(waits []*Event) (*Event, error) {
	if q.outOfOrder && len(waits) == 0 {
		waits = q.pending()
	}
	return q.Enqueue("marker", waits, func(*sim.Proc) error { return nil })
}

// EnqueueBarrier inserts a scheduling barrier: every command enqueued after
// it waits for everything enqueued before it (clEnqueueBarrierWithWaitList).
// An in-order queue has that ordering already.
func (q *CommandQueue) EnqueueBarrier() (*Event, error) {
	ev, err := q.EnqueueMarker(nil)
	if err != nil {
		return nil, err
	}
	q.barrier = ev
	return ev, nil
}

// Finish blocks the calling process until every command enqueued so far has
// completed, like clFinish. It returns the first error of any command that
// completed on the queue since the previous Finish; each command's error is
// also reported on its own event. A queue that was shut down still drains.
func (q *CommandQueue) Finish(p *sim.Proc) error {
	// The waits' own errors are dropped: execute has recorded every
	// command error in q.err.
	switch {
	case q.outOfOrder:
		_ = WaitForEvents(p, q.pending()...)
	case q.released:
		// A shut-down queue takes no marker, but its commands run one at
		// a time: the last one completing drains it.
		if q.last != nil {
			_ = q.last.Wait(p)
		}
	default:
		ev, err := q.EnqueueMarker(nil)
		if err != nil {
			return err
		}
		_ = ev.Wait(p)
	}
	err := q.err
	q.err = nil
	return err
}

// Shutdown releases the queue: further enqueues fail with ErrQueueShutDown,
// and commands already enqueued still complete. Simulations do not need to
// call it — idle workers are daemons — but tests of teardown behaviour do.
func (q *CommandQueue) Shutdown() { q.released = true }

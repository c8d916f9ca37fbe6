package cl

import (
	"fmt"

	"repro/internal/sim"
)

// command is one unit of work flowing through a queue.
type command struct {
	ev    *Event
	waits []*Event
	// run performs the command on the queue's worker process. It may block
	// in virtual time (PCIe transfers, kernel execution, and — for the
	// clMPI extension — inter-node communication).
	run func(p *sim.Proc) error
}

// newCommand creates an enqueued command's event and reports the enqueue
// to the context's observer; both queue kinds enqueue through it.
func (c *Context) newCommand(label string, waits []*Event, run func(p *sim.Proc) error) *command {
	ev := newEvent(c, label, false)
	if c.obs != nil {
		if pn := c.eng.CurrentProcName(); pn != "" {
			c.obs.CommandEnqueued(pn, ev)
		}
	}
	return &command{ev: ev, waits: append([]*Event(nil), waits...), run: run}
}

// execute runs one command's lifecycle on worker process p of the queue
// labelled lane, for both queue kinds: submitted, wait list, running, run,
// report, complete.
func (c *Context) execute(p *sim.Proc, lane string, inOrder bool, cmd *command) {
	cmd.ev.markSubmitted(p.Now())
	if depErr := WaitForEvents(p, cmd.waits...); depErr != nil {
		// A failed dependency terminates the command abnormally,
		// mirroring OpenCL's negative-status propagation.
		cmd.ev.complete(p.Now(), fmt.Errorf("%w: dependency failed: %v", ErrExecStatusError, depErr))
		return
	}
	cmd.ev.markRunning(p.Now())
	err := cmd.run(p)
	if c.obs != nil {
		c.obs.CommandDone(lane, inOrder, cmd.ev, cmd.waits, p.Name(), p.Now())
	}
	cmd.ev.complete(p.Now(), err)
}

// CommandQueue is an in-order cl_command_queue: commands execute one at a
// time in enqueue order, each additionally gated on its event wait list.
// A dedicated worker process models the driver thread that feeds the device,
// which is exactly the asynchrony the paper exploits: the host thread
// enqueues and moves on.
type CommandQueue struct {
	ctx      *Context
	label    string
	cmds     *sim.Queue[*command]
	released bool
}

// NewQueue creates an in-order command queue on the context's device.
func (c *Context) NewQueue(label string) *CommandQueue {
	q := &CommandQueue{
		ctx:   c,
		label: label,
		cmds:  sim.NewQueue[*command](c.eng, "clq-"+label),
	}
	c.queues = append(c.queues, q)
	c.eng.SpawnDaemon("clqueue-"+label, q.loop)
	return q
}

// Label reports the queue's diagnostic name.
func (q *CommandQueue) Label() string { return q.label }

// Context returns the owning context.
func (q *CommandQueue) Context() *Context { return q.ctx }

// loop is the worker process. In-order semantics: previous commands have
// already completed because this loop is serial; each command's wait list
// adds cross-queue and user-event dependencies.
func (q *CommandQueue) loop(p *sim.Proc) {
	for {
		cmd, ok := q.cmds.Get(p)
		if !ok {
			return
		}
		q.ctx.execute(p, q.label, true, cmd)
	}
}

// Enqueue submits a custom command. label names it in traces; waits is the
// event wait list (nil entries allowed); run executes on the queue's worker
// process. The returned event completes when run returns. This is the
// extension point the clMPI runtime uses for its inter-node communication
// commands, keeping them first-class citizens of the OpenCL execution model
// (§IV of the paper).
func (q *CommandQueue) Enqueue(label string, waits []*Event, run func(p *sim.Proc) error) (*Event, error) {
	if q.released {
		return nil, ErrQueueShutDown
	}
	cmd := q.ctx.newCommand(label, waits, run)
	q.cmds.Put(cmd)
	return cmd.ev, nil
}

// EnqueueMarker submits a no-op command whose event completes when all
// previously enqueued commands have (clEnqueueMarker on an in-order queue).
func (q *CommandQueue) EnqueueMarker(waits []*Event) (*Event, error) {
	return q.Enqueue("marker", waits, func(p *sim.Proc) error { return nil })
}

// Finish blocks the calling process until every command currently enqueued
// has completed, like clFinish. It returns the first command error observed
// by the flush marker's dependencies (individual command errors are reported
// on their own events).
func (q *CommandQueue) Finish(p *sim.Proc) error {
	ev, err := q.EnqueueMarker(nil)
	if err != nil {
		return err
	}
	return ev.Wait(p)
}

// Flush is a no-op provided for API parity: commands are handed to the
// worker immediately on enqueue.
func (q *CommandQueue) Flush() {}

// Shutdown releases the queue: buffered commands still drain, further
// enqueues fail with ErrQueueShutDown. Simulations do not need to call it —
// idle workers are daemons — but tests of teardown behaviour do.
func (q *CommandQueue) Shutdown() {
	if q.released {
		return
	}
	q.released = true
	q.cmds.Close()
}

// FinishAll blocks until every in-order queue of the context has drained —
// the "clFinish at the end of the iteration" of the paper's Fig. 6,
// generalized over however many queues the application created.
func (c *Context) FinishAll(p *sim.Proc) error {
	var first error
	for _, q := range c.queues {
		if q.released {
			continue
		}
		if err := q.Finish(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

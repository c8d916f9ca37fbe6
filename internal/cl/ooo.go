package cl

import (
	"fmt"

	"repro/internal/sim"
)

// Out-of-order command queues (CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE).
// Commands become eligible as soon as their wait list completes, with no
// implicit ordering between commands; explicit ordering uses events or
// barrier commands. The clMPI paper's applications use in-order queues, but
// the extension composes with out-of-order queues unchanged — a single OOO
// queue can express the Fig. 6 dataflow that needs three in-order queues.
//
// Each eligible command runs on its own worker process; the device's
// compute unit and PCIe links still serialize the hardware stages, so
// out-of-order execution reorders *scheduling*, not physics.

// OOQueue is an out-of-order command queue.
type OOQueue struct {
	ctx      *Context
	label    string
	released bool
	seq      int
	// barrier, when non-nil, is implicitly appended to the wait list of
	// every subsequently enqueued command (EnqueueBarrier semantics).
	barrier *Event
	// outstanding tracks events of all enqueued, not-yet-complete
	// commands, for Finish and markers.
	outstanding []*Event
}

// NewOutOfOrderQueue creates an out-of-order queue on the context's device.
func (c *Context) NewOutOfOrderQueue(label string) *OOQueue {
	return &OOQueue{ctx: c, label: label}
}

// Label reports the queue's diagnostic name.
func (q *OOQueue) Label() string { return q.label }

// Context returns the owning context.
func (q *OOQueue) Context() *Context { return q.ctx }

// pending prunes completed events from the outstanding list and returns the
// remainder.
func (q *OOQueue) pending() []*Event {
	live := q.outstanding[:0]
	for _, ev := range q.outstanding {
		if ev.Status() != Complete {
			live = append(live, ev)
		}
	}
	q.outstanding = live
	return append([]*Event(nil), live...)
}

// Enqueue submits a command; it starts once every event in waits (plus any
// active barrier) has completed, regardless of enqueue order.
func (q *OOQueue) Enqueue(label string, waits []*Event, run func(p *sim.Proc) error) (*Event, error) {
	if q.released {
		return nil, ErrQueueShutDown
	}
	cmd := q.ctx.newCommand(label, waits, run)
	if q.barrier != nil {
		cmd.waits = append(cmd.waits, q.barrier)
	}
	q.seq++
	q.outstanding = append(q.outstanding, cmd.ev)
	q.ctx.eng.SpawnDaemon(fmt.Sprintf("clooq-%s-%d", q.label, q.seq), func(p *sim.Proc) {
		q.ctx.execute(p, q.label, false, cmd)
	})
	return cmd.ev, nil
}

// EnqueueNDRangeKernel launches a kernel out of order; see
// CommandQueue.EnqueueNDRangeKernel for the cost model.
func (q *OOQueue) EnqueueNDRangeKernel(k *Kernel, args []any, waits []*Event) (*Event, error) {
	if k == nil || (k.FLOPs == nil) == (k.Cost == nil) {
		return nil, fmt.Errorf("%w: kernel must define exactly one of FLOPs and Cost", ErrInvalidKernel)
	}
	dev := q.ctx.Device
	return q.Enqueue("kernel "+k.Name, waits, func(wp *sim.Proc) error {
		return runKernel(wp, dev, k, args)
	})
}

// EnqueueMarker returns an event that completes when every command enqueued
// before it has completed (clEnqueueMarkerWithWaitList with an empty list).
func (q *OOQueue) EnqueueMarker() (*Event, error) {
	snapshot := q.pending()
	return q.Enqueue("marker", snapshot, func(p *sim.Proc) error { return nil })
}

// EnqueueBarrier inserts a scheduling barrier: every command enqueued after
// it waits for everything enqueued before it (clEnqueueBarrierWithWaitList).
func (q *OOQueue) EnqueueBarrier() (*Event, error) {
	ev, err := q.EnqueueMarker()
	if err != nil {
		return nil, err
	}
	q.barrier = ev
	return ev, nil
}

// Finish blocks until every command enqueued so far has completed.
func (q *OOQueue) Finish(p *sim.Proc) error {
	return WaitForEvents(p, q.pending()...)
}

// Shutdown rejects further enqueues; in-flight commands still complete.
func (q *OOQueue) Shutdown() { q.released = true }

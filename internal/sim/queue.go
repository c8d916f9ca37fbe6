package sim

// Queue is an unbounded FIFO channel in virtual time. Any number of
// processes may Put and Get concurrently; Get blocks while the queue is
// empty, and blocked getters are served in FIFO order. It is the backbone of
// every command queue and progress-engine work list in the runtimes above.
type Queue[T any] struct {
	eng     *Engine
	label   string
	items   []T
	getters []*Proc
	// handoff delivers an item directly to a woken getter, preserving FIFO
	// pairing between items and getters. Made on the first such delivery.
	handoff map[*Proc]T
	closed  bool
}

// NewQueue creates an empty queue.
func NewQueue[T any](e *Engine, label string) *Queue[T] {
	return &Queue[T]{eng: e, label: label}
}

// WaitLabel implements Labeler: the deadlock-report annotation of a process
// blocked on this queue, built only when a report needs it.
func (q *Queue[T]) WaitLabel() string { return "queue " + q.label }

// Len reports the number of items currently buffered.
func (q *Queue[T]) Len() int { return len(q.items) }

// Put appends an item. It never blocks and may be called from any process
// or from scheduler context. Putting to a closed queue panics.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		panic("sim: Put on closed queue " + q.label)
	}
	if len(q.getters) > 0 {
		g := q.getters[0]
		q.getters = q.getters[1:]
		if q.handoff == nil {
			q.handoff = make(map[*Proc]T)
		}
		q.handoff[g] = v
		q.eng.wake(g)
		return
	}
	q.items = append(q.items, v)
}

// Get removes and returns the oldest item, blocking process p while the
// queue is empty. The second result is false if the queue was closed and
// drained.
func (q *Queue[T]) Get(p *Proc) (T, bool) {
	if v, ok := q.TryGet(); ok {
		return v, true
	}
	if q.closed {
		var zero T
		return zero, false
	}
	q.getters = append(q.getters, p)
	p.waitLblr = q
	q.eng.park(p, "")
	// A getter woken by Close has nothing delivered: v is zero, ok false.
	v, ok := q.handoff[p]
	delete(q.handoff, p)
	return v, ok
}

// TryGet removes and returns the oldest item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Close marks the queue closed: buffered items may still be drained, blocked
// and future Gets on an empty queue return ok=false, and Put panics. Closing
// twice is a no-op.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, g := range q.getters {
		q.eng.wake(g)
	}
	q.getters = nil
}

//go:build go1.23

package sim

import "iter"

// coro is the coroutine a blocking process runs on. The engine's scheduler
// loop resumes it with next; the process gives control back by parking,
// which yields, or by finishing. A finished process leaves its coroutine on
// the engine's free list, so the next process to start reuses it, and the
// engine stops every pooled coroutine when the simulation ends.
//
// Exactly one side runs at a time: the loop waits in next until the
// coroutine yields or finishes, and the coroutine waits in yield until the
// loop resumes it. The engine's state passes between them with control, so
// neither side takes a lock.
type coro struct {
	p     *Proc // the process to run on the next fresh resume
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// newCoro creates a coroutine that will run p. The goroutine underneath
// inherits the pprof labels of the goroutine that creates it, so the engine
// creates coroutines from its scheduler loop, never at spawn time: labels
// then come from whichever goroutine drives the simulation.
func newCoro(p *Proc) *coro {
	c := &coro{p: p}
	c.next, c.stop = iter.Pull(c.body)
	return c
}

// body runs one process per resume until the engine stops the coroutine.
func (c *coro) body(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run(c.p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes p's function. Teardown's abortPanic ends here; any other
// panic leaves the coroutine, reaches the scheduler loop through next, and
// continues on the goroutine that drives the simulation.
func (c *coro) run(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortPanic); !ok {
				panic(r)
			}
		}
	}()
	p.fn(p)
}

//go:build go1.23

package sim

import "iter"

// coro is the coroutine a blocking process runs on. The engine's scheduler
// loop resumes it with next; the process gives control back by parking,
// which yields, or by finishing. A finished process leaves its coroutine on
// the engine's free list, so the next process to start reuses it, and the
// engine stops every pooled coroutine when the simulation ends.
//
// The engine lock travels with control: the loop holds e.mu when it calls
// next, a parked process wakes holding it (park returns with e.mu held, as
// its callers expect), and the coroutine holds it again whenever it yields.
// Exactly one side runs at a time, so the lock never changes hands under
// contention.
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

// run executes p's function with the engine lock released and takes the
// lock back once it returns. Teardown's abortPanic ends here; any other
// panic leaves the coroutine, reaches the scheduler loop through next, and
// continues on the goroutine that drives the simulation.
func (c *coro) run(p *Proc) {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortPanic); !ok {
				panic(r)
			}
		}
		e.mu.Lock()
	}()
	e.mu.Unlock()
	p.fn(p)
}

package sim

import "fmt"

// Mutex is a mutual-exclusion lock in virtual time with FIFO handoff:
// waiters acquire the lock in the order they requested it, which keeps
// simulations deterministic.
type Mutex struct {
	eng     *Engine
	label   string
	link    bool // a Link's own mutex, named "link <label>"
	locked  bool
	waiters procRing // recycles its slots: a busy link allocates no queue
}

// NewMutex creates an unlocked virtual mutex.
func NewMutex(e *Engine, label string) *Mutex {
	return &Mutex{eng: e, label: label}
}

// name reports the mutex's diagnostic name. It is built on demand, so a
// cluster's thousands of link mutexes cost no label strings up front.
func (m *Mutex) name() string {
	if m.link {
		return "link " + m.label
	}
	return m.label
}

// WaitLabel implements Labeler: the deadlock-report annotation of a process
// blocked on this mutex.
func (m *Mutex) WaitLabel() string { return "mutex " + m.name() }

// Lock blocks process p until it holds the mutex.
func (m *Mutex) Lock(p *Proc) {
	if !m.lock(p) {
		p.waitLblr = m
		m.eng.park(p, "")
		// Ownership was transferred to us by Unlock before we were woken.
	}
}

// LockStep is Lock for a step process: it reports true if p now holds the
// mutex, or queues p as a waiter, parks it and reports false. Ownership is
// handed to p before it is woken, exactly as for a blocked Lock.
func (m *Mutex) LockStep(p *Proc) bool {
	if m.lock(p) {
		return true
	}
	p.waitLblr = m
	m.eng.parkStep(p, "")
	return false
}

// lock takes the mutex if it is free, and otherwise queues p as the newest
// waiter.
func (m *Mutex) lock(p *Proc) bool {
	if !m.locked {
		m.locked = true
		return true
	}
	m.waiters.push(p)
	return false
}

// Unlock releases the mutex, handing it directly to the longest-waiting
// process if any. Unlocking an unheld mutex panics.
func (m *Mutex) Unlock(p *Proc) {
	if !m.locked {
		panic(fmt.Sprintf("sim: unlock of unlocked mutex %q", m.name()))
	}
	if m.waiters.len() > 0 {
		m.eng.wake(m.waiters.pop()) // lock stays held, ownership transfers
		return
	}
	m.locked = false
}

// Semaphore is a counting semaphore in virtual time with FIFO wakeups.
type Semaphore struct {
	eng     *Engine
	label   string
	count   int
	waiters []*semWaiter
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore creates a semaphore holding n initial permits.
func NewSemaphore(e *Engine, label string, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore count")
	}
	return &Semaphore{eng: e, label: label, count: n}
}

// WaitLabel implements Labeler: the deadlock-report annotation of a process
// blocked on this semaphore, built only when a report needs it.
func (s *Semaphore) WaitLabel() string { return "semaphore " + s.label }

// Acquire blocks p until n permits are available and takes them. Waiters are
// served strictly in FIFO order (no barging), so a large request cannot be
// starved by a stream of small ones.
func (s *Semaphore) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if !s.acquire(p, n) {
		p.waitLblr = s
		s.eng.park(p, "")
	}
}

// AcquireStep is Acquire for a step process: it reports true if p now holds
// the n permits, or queues p in FIFO order, parks it and reports false. The
// permits are taken for p before it is woken, as for a blocked Acquire.
func (s *Semaphore) AcquireStep(p *Proc, n int) bool {
	if n <= 0 {
		return true
	}
	if s.acquire(p, n) {
		return true
	}
	p.waitLblr = s
	s.eng.parkStep(p, "")
	return false
}

// acquire takes n permits if no one is queued ahead and enough are free,
// and otherwise queues p.
func (s *Semaphore) acquire(p *Proc, n int) bool {
	if len(s.waiters) == 0 && s.count >= n {
		s.count -= n
		return true
	}
	s.waiters = append(s.waiters, &semWaiter{p: p, n: n})
	return false
}

// Release returns n permits and wakes as many FIFO waiters as can now be
// satisfied.
func (s *Semaphore) Release(p *Proc, n int) {
	if n <= 0 {
		return
	}
	s.count += n
	for len(s.waiters) > 0 && s.count >= s.waiters[0].n {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.count -= w.n
		s.eng.wake(w.p)
	}
}

// WaitGroup counts outstanding activities in virtual time, like sync.WaitGroup.
type WaitGroup struct {
	eng   *Engine
	label string
	n     int
	done  *Trigger
}

// NewWaitGroup creates a WaitGroup with zero count.
func NewWaitGroup(e *Engine, label string) *WaitGroup {
	return &WaitGroup{eng: e, label: label}
}

// Add increments the count by delta (which may be negative). When the count
// reaches zero all current waiters resume.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 && w.done != nil {
		w.done.Fire(nil)
		w.done = nil
	}
}

// WaitLabel implements Labeler: the deadlock-report annotation of a process
// blocked on this group.
func (w *WaitGroup) WaitLabel() string { return "trigger waitgroup " + w.label }

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	if w.done == nil {
		w.done = NewTriggerLazy(w.eng, w)
	}
	w.done.Wait(p)
}

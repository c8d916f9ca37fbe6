package sim

import (
	"errors"
	"testing"
	"time"
)

func TestMutexExcludes(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "m")
	inside := 0
	for i := 0; i < 4; i++ {
		e.Spawn("p", func(p *Proc) {
			m.Lock(p)
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			p.Sleep(time.Millisecond)
			inside--
			m.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(4*time.Millisecond) {
		t.Fatalf("critical sections did not serialize: end at %v", e.Now())
	}
}

func TestMutexFIFO(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "m")
	var order []int
	e.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * time.Millisecond)
		m.Unlock(p)
	})
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond) // request order 0..4
			m.Lock(p)
			order = append(order, i)
			m.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("acquisition order %v, want FIFO", order)
		}
	}
}

func TestMutexUnlockUnheldPanics(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "m")
	panicked := false
	e.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		m.Unlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("unlock of unheld mutex did not panic")
	}
}

func TestSemaphoreCounting(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "s", 2)
	active, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("p", func(p *Proc) {
			s.Acquire(p, 1)
			active++
			if active > peak {
				peak = active
			}
			p.Sleep(time.Millisecond)
			active--
			s.Release(p, 1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency %d, want 2", peak)
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("6 jobs at width 2 ended at %v, want 3ms", e.Now())
	}
}

func TestSemaphoreNoBarging(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "s", 2)
	var got []string
	e.Spawn("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Acquire(p, 2) // needs both permits
		got = append(got, "big")
		s.Release(p, 2)
	})
	e.Spawn("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		s.Acquire(p, 1) // arrives later; must not jump the big waiter
		got = append(got, "small")
		s.Release(p, 1)
	})
	e.Spawn("holder", func(p *Proc) {
		s.Acquire(p, 1)
		p.Sleep(5 * time.Millisecond)
		s.Release(p, 1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "big" || got[1] != "small" {
		t.Fatalf("order %v, want [big small]", got)
	}
}

func TestSemaphoreZeroAcquireReleaseNoOp(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, "s", 0)
	e.Spawn("p", func(p *Proc) {
		s.Acquire(p, 0)
		s.Release(p, 0)
		s.Release(p, -1)
		s.Acquire(p, -5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, "wg")
	var at Time
	wg.Add(3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			wg.Done()
		})
	}
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(3*time.Millisecond) {
		t.Fatalf("wait returned at %v, want 3ms", at)
	}
}

func TestWaitGroupZeroReturnsImmediately(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e, "wg")
	e.Spawn("p", func(p *Proc) {
		wg.Wait(p)
		if p.Now() != 0 {
			t.Error("zero-count Wait blocked")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	var got []int
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			q.Put(i)
			p.Sleep(time.Microsecond)
		}
		q.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d items", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v", got)
		}
	}
}

func TestQueueBlockingGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e, "q")
	var at Time
	e.Spawn("consumer", func(p *Proc) {
		v, ok := q.Get(p)
		if !ok || v != "x" {
			t.Errorf("Get = %q, %v", v, ok)
		}
		at = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		q.Put("x")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(4*time.Millisecond) {
		t.Fatalf("consumer woke at %v", at)
	}
}

func TestQueueCloseWakesGetters(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	okCount := 0
	for i := 0; i < 3; i++ {
		e.Spawn("g", func(p *Proc) {
			if _, ok := q.Get(p); ok {
				okCount++
			}
		})
	}
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if okCount != 0 {
		t.Fatalf("%d getters got values from empty closed queue", okCount)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	e.Spawn("p", func(p *Proc) {
		if _, ok := q.TryGet(); ok {
			t.Error("TryGet on empty queue succeeded")
		}
		q.Put(7)
		if v, ok := q.TryGet(); !ok || v != 7 {
			t.Errorf("TryGet = %d, %v", v, ok)
		}
		if q.Len() != 0 {
			t.Errorf("Len = %d", q.Len())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePutAfterClosePanics(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "q")
	panicked := false
	e.Spawn("p", func(p *Proc) {
		q.Close()
		q.Close() // double close is fine
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		q.Put(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("Put after Close did not panic")
	}
}

func TestLinkSerialization(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "net", 1e9) // 1 GB/s
	e.Spawn("p", func(p *Proc) {
		l.Occupy(p, l.SerializationTime(1<<20), "xfer", 1<<20) // 1 MiB
		end := p.Now()
		want := Time(time.Duration(float64(1<<20) / 1e9 * 1e9))
		if end != want {
			t.Errorf("transfer ended at %v, want %v", end, want)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkContention(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "net", 1e6) // 1 MB/s: 1 ms per KB
	for i := 0; i < 3; i++ {
		e.Spawn("p", func(p *Proc) { l.Occupy(p, l.SerializationTime(1000), "xfer", 1000) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("3 contending transfers ended at %v, want 3ms", e.Now())
	}
}

func TestLinkZeroBandwidthInstant(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "infinite", 0)
	e.Spawn("p", func(p *Proc) {
		l.Occupy(p, l.SerializationTime(1<<30), "xfer", 1<<30)
		if p.Now() != 0 {
			t.Errorf("infinite link took time: %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkExtraOverhead(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "net", 1e6)
	e.Spawn("p", func(p *Proc) {
		l.Occupy(p, l.SerializationTime(1000)+2*time.Millisecond, "xfer", 1000)
		if p.Now() != Time(3*time.Millisecond) {
			t.Errorf("transfer with overhead ended at %v, want 3ms", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkOccupy(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "net", 1e6)
	e.Spawn("a", func(p *Proc) { l.Occupy(p, 2*time.Millisecond, "ctl", 0) })
	e.Spawn("b", func(p *Proc) { l.Occupy(p, l.SerializationTime(1000), "xfer", 1000) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("occupy+transfer ended at %v, want 3ms", e.Now())
	}
}

// lblr is a test Labeler for lazily labelled triggers.
type lblr string

func (l lblr) WaitLabel() string { return string(l) }

// TestDeadlockLabelsPerPrimitive pins the deadlock report of a process
// blocked on each primitive byte for byte: labels are built only when a
// report needs them, and the lazy path must spell them exactly as the
// eager strings did.
func TestDeadlockLabelsPerPrimitive(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "m")
	s := NewSemaphore(e, "bp", 1)
	l := NewLink(e, "n0.tx", 1e9)
	q := NewQueue[int](e, "work")
	wg := NewWaitGroup(e, "halo")
	never := NewTrigger(e, "never")
	lazy := NewTriggerLazy(e, lblr("request 7"))
	e.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		s.Acquire(p, 1)
		l.Lock(p)
		wg.Add(1)
		never.Wait(p)
	})
	e.Spawn("on-mutex", func(p *Proc) { m.Lock(p) })
	e.Spawn("on-semaphore", func(p *Proc) { s.Acquire(p, 1) })
	e.Spawn("on-link", func(p *Proc) { l.Lock(p) })
	e.Spawn("on-queue", func(p *Proc) { q.Get(p) })
	e.Spawn("on-waitgroup", func(p *Proc) { wg.Wait(p) })
	e.Spawn("on-lazy", func(p *Proc) { lazy.Wait(p) })
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Microsecond) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want a deadlock", err)
	}
	const want = "sim: deadlock at 1µs; blocked: holder (trigger never), " +
		"on-lazy (request 7), on-link (mutex link n0.tx), on-mutex (mutex m), " +
		"on-queue (queue work), on-semaphore (semaphore bp), " +
		"on-waitgroup (trigger waitgroup halo)"
	if got := err.Error(); got != want {
		t.Fatalf("deadlock report\n got %s\nwant %s", got, want)
	}
}

package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestTriggerWaitThenFire(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "t")
	var got any
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		got = tr.Wait(p)
		at = p.Now()
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		tr.Fire("payload")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("payload = %v", got)
	}
	if at != Time(2*time.Millisecond) {
		t.Fatalf("woke at %v", at)
	}
	if !tr.Fired() || tr.FiredAt() != at || tr.Payload() != "payload" {
		t.Fatal("trigger state inconsistent after fire")
	}
}

func TestTriggerFireThenWait(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "t")
	e.Spawn("p", func(p *Proc) {
		tr.Fire(42)
		before := p.Now()
		if v := tr.Wait(p); v != 42 {
			t.Errorf("payload = %v", v)
		}
		if p.Now() != before {
			t.Error("wait on fired trigger blocked")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTriggerSecondFireIgnored(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "t")
	e.Spawn("p", func(p *Proc) {
		tr.Fire(1)
		p.Sleep(time.Millisecond)
		tr.Fire(2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Payload() != 1 || tr.FiredAt() != 0 {
		t.Fatalf("second fire overwrote state: payload=%v at=%v", tr.Payload(), tr.FiredAt())
	}
}

func TestTriggerMultipleWaiters(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "t")
	woke := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			tr.Wait(p)
			if p.Now() != Time(time.Millisecond) {
				t.Errorf("waiter woke at %v", p.Now())
			}
			woke++
		})
	}
	e.Spawn("f", func(p *Proc) {
		p.Sleep(time.Millisecond)
		tr.Fire(nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke %d waiters, want 5", woke)
	}
}

func TestTriggerFireAfter(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "t")
	var at Time
	e.Spawn("w", func(p *Proc) {
		tr.FireAfter(7*time.Millisecond, "late")
		tr.Wait(p)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(7*time.Millisecond) {
		t.Fatalf("fired at %v", at)
	}
}

func TestTriggerOnFireBookkeeping(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "t")
	var stamped Time
	tr.OnFire(func(at Time, _ any) { stamped = at })
	e.Spawn("p", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		tr.Fire(nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stamped != Time(3*time.Millisecond) {
		t.Fatalf("callback stamped %v", stamped)
	}
	// Registering after the fire runs immediately.
	var again Time = -1
	tr.OnFire(func(at Time, _ any) { again = at })
	if again != stamped {
		t.Fatalf("late OnFire got %v", again)
	}
}

// TestSchedulerContextSchedulesWork: OnFire callbacks and After functions
// run in scheduler context, where every non-blocking call is allowed. They
// fire triggers later with FireAfter, schedule further After functions and
// put to queues, and the work lands at the virtual times it was scheduled
// for — whether the callback runs from a process's Fire, from a timer, or
// immediately on a trigger that has already fired.
func TestSchedulerContextSchedulesWork(t *testing.T) {
	const ms = time.Millisecond
	type got struct {
		v  int
		at Time
	}
	var (
		items          []got
		bAt, cAt, dAt  Time
		late, lateDone Time
	)
	waitNoHang(t, "scheduling from scheduler context", func() {
		e := NewEngine()
		a := NewTrigger(e, "a")
		b := NewTrigger(e, "b")
		c := NewTrigger(e, "c")
		d := NewTrigger(e, "d")
		q := NewQueue[int](e, "q")
		a.OnFire(func(Time, any) {
			q.Put(1)
			b.FireAfter(2*ms, nil)
			e.After(3*ms, func() {
				q.Put(7)
				c.FireAfter(ms, nil)
				e.After(2*ms, func() { d.Fire(nil) })
			})
		})
		e.Spawn("firer", func(p *Proc) {
			p.Sleep(ms)
			a.Fire(nil)
			p.Sleep(10 * ms)
			// Registered after the fire, the callback runs at once, in
			// this process, and may still schedule.
			a.OnFire(func(at Time, _ any) {
				late = at
				e.After(ms, func() { lateDone = e.Now() })
			})
		})
		e.Spawn("getter", func(p *Proc) {
			for i := 0; i < 2; i++ {
				v, _ := q.Get(p)
				items = append(items, got{v, p.Now()})
			}
		})
		for _, w := range []struct {
			name string
			tr   *Trigger
			at   *Time
		}{{"b", b, &bAt}, {"c", c, &cAt}, {"d", d, &dAt}} {
			e.Spawn("waiter "+w.name, func(p *Proc) {
				w.tr.Wait(p)
				*w.at = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	want := []got{{1, Time(ms)}, {7, Time(4 * ms)}}
	if len(items) != 2 || items[0] != want[0] || items[1] != want[1] {
		t.Errorf("queue items %v, want %v", items, want)
	}
	if bAt != Time(3*ms) || cAt != Time(5*ms) || dAt != Time(6*ms) {
		t.Errorf("b, c, d fired at %v, %v, %v; want 3ms, 5ms, 6ms", bAt, cAt, dAt)
	}
	if late != Time(ms) || lateDone != Time(12*ms) {
		t.Errorf("late OnFire saw %v and scheduled for %v; want 1ms and 12ms", late, lateDone)
	}
}

func TestTriggerChain(t *testing.T) {
	e := NewEngine()
	a := NewTrigger(e, "a")
	b := NewTrigger(e, "b")
	a.Chain(b)
	var at Time
	e.Spawn("w", func(p *Proc) {
		a.FireAfter(4*time.Millisecond, "x")
		b.Wait(p)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(4*time.Millisecond) || b.Payload() != "x" {
		t.Fatalf("chained fire at %v payload %v", at, b.Payload())
	}
}

func TestTriggerChainAlreadyFired(t *testing.T) {
	e := NewEngine()
	a := NewTrigger(e, "a")
	b := NewTrigger(e, "b")
	e.Spawn("p", func(p *Proc) {
		a.Fire("y")
		a.Chain(b)
		if !b.Fired() || b.Payload() != "y" {
			t.Error("chain to fired trigger did not propagate")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEngine()
	ts := []*Trigger{NewTrigger(e, "1"), NewTrigger(e, "2"), NewTrigger(e, "3")}
	var at Time
	e.Spawn("w", func(p *Proc) {
		WaitAll(p, ts...)
		at = p.Now()
	})
	for i, tr := range ts {
		d := time.Duration(i+1) * time.Millisecond
		tr := tr
		e.Spawn("f", func(p *Proc) {
			p.Sleep(d)
			tr.Fire(nil)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(3*time.Millisecond) {
		t.Fatalf("WaitAll finished at %v, want the max (3ms)", at)
	}
}

func TestWaitAllNilAndEmpty(t *testing.T) {
	e := NewEngine()
	e.Spawn("w", func(p *Proc) {
		WaitAll(p) // empty: returns immediately
		WaitAll(p, nil, nil)
		if p.Now() != 0 {
			t.Error("WaitAll on nothing advanced time")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTriggerOverflowOrder registers one to five waiters, callbacks and
// chained triggers — past the inline slots into the overflow record — and
// checks that each kind runs in registration order.
func TestTriggerOverflowOrder(t *testing.T) {
	for n := 1; n <= 5; n++ {
		e := NewEngine()
		tr := NewTrigger(e, "t")
		var woke, called, chained []int
		for i := 0; i < n; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				if v := tr.Wait(p); v != "x" {
					t.Errorf("waiter %d got payload %v", i, v)
				}
				woke = append(woke, i)
			})
			tr.OnFire(func(_ Time, v any) {
				if v != "x" {
					t.Errorf("callback %d got payload %v", i, v)
				}
				called = append(called, i)
			})
			ch := NewTrigger(e, "ch")
			ch.OnFire(func(Time, any) { chained = append(chained, i) })
			tr.Chain(ch)
		}
		e.Spawn("firer", func(p *Proc) {
			p.Sleep(time.Millisecond)
			tr.Fire("x")
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]int{"waiters": woke, "callbacks": called, "chains": chained} {
			if len(got) != n {
				t.Fatalf("n=%d: %d %s ran", n, len(got), name)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("n=%d: %s ran in order %v", n, name, got)
				}
			}
		}
	}
}

// noteFire is a callback that allocates nothing to call.
func noteFire(Time, any) {}

// TestTriggerInlineSlotsAllocateNothing: with at most one waiter, one
// callback and one chained trigger, readying, registering, firing and
// waiting cost no allocation.
func TestTriggerInlineSlotsAllocateNothing(t *testing.T) {
	const runs = 100
	e := NewEngine()
	trs := make([]Trigger, runs+1)
	chs := make([]Trigger, runs+1)
	var allocs float64
	e.Spawn("main", func(p *Proc) {
		i := 0
		allocs = testing.AllocsPerRun(runs, func() {
			tr, ch := &trs[i], &chs[i]
			i++
			tr.Init(e, Label("t"))
			ch.Init(e, Label("ch"))
			tr.OnFire(noteFire)
			tr.Chain(ch)
			tr.FireAfter(time.Microsecond, nil)
			tr.Wait(p)
			if !ch.Fired() {
				t.Error("chained trigger did not fire")
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("one waiter, callback and chain allocated %v times, want 0", allocs)
	}
}

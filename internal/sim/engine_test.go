package sim

import (
	"errors"
	"testing"
	"time"
)

func TestEmptyRun(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved in empty run: %v", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := woke, Time(3*time.Millisecond); got != want {
		t.Fatalf("woke at %v, want %v", got, want)
	}
	if e.Now() != woke {
		t.Fatalf("final clock %v != wake time %v", e.Now(), woke)
	}
}

func TestZeroSleepDoesNotAdvanceClock(t *testing.T) {
	e := NewEngine()
	e.Spawn("yielder", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Yield()
		}
		if p.Now() != 0 {
			t.Errorf("yield advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSleepIsYield(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicInterleaving runs the same two-process program twice and
// requires identical event orders.
func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		var log []string
		e := NewEngine()
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Sleep(time.Millisecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("trial %d: event %d = %q, want %q", trial, i, again[i], first[i])
			}
		}
	}
}

func TestSimultaneousTimersFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(time.Millisecond) // all wake at the same instant
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order %v, want ascending", order)
		}
	}
}

func TestAfterCallback(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "cb")
	var at Time
	e.Spawn("waiter", func(p *Proc) {
		tr.Wait(p)
		at = p.Now()
	})
	e.Spawn("setter", func(p *Proc) {
		p.Engine().After(5*time.Millisecond, func() { tr.Fire(nil) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(5*time.Millisecond) {
		t.Fatalf("callback fired at %v, want 5ms", at)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
			if c.Now() != Time(2*time.Millisecond) {
				t.Errorf("child clock %v, want 2ms", c.Now())
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "never")
	e.Spawn("stuck", func(p *Proc) { tr.Wait(p) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck (trigger never)" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

func TestDeadlockAfterProgress(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "m")
	e.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		// Never unlocks, then exits; the waiter is stuck forever.
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Lock(p)
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if dl.Time != Time(time.Millisecond) {
		t.Fatalf("deadlock at %v, want 1ms", dl.Time)
	}
}

func TestMutualDeadlockDetected(t *testing.T) {
	e := NewEngine()
	a := NewMutex(e, "a")
	b := NewMutex(e, "b")
	e.Spawn("p1", func(p *Proc) {
		a.Lock(p)
		p.Sleep(time.Millisecond)
		b.Lock(p)
	})
	e.Spawn("p2", func(p *Proc) {
		b.Lock(p)
		p.Sleep(time.Millisecond)
		a.Lock(p)
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked = %v, want both processes", dl.Blocked)
	}
}

func TestErrAfterRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("ok", func(p *Proc) { p.Sleep(time.Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Err() != nil {
		t.Fatalf("Err = %v after clean run", e.Err())
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(1500 * time.Millisecond)
	if t0.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", t0.Seconds())
	}
	if t0.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Fatalf("Sub = %v", t0.Sub(Time(time.Second)))
	}
	if t0.Duration() != 1500*time.Millisecond {
		t.Fatalf("Duration = %v", t0.Duration())
	}
	if t0.String() != "1.5s" {
		t.Fatalf("String = %q", t0.String())
	}
}

func TestDaemonDoesNotBlockCompletion(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "work")
	served := 0
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			served++
			p.Sleep(time.Millisecond)
		}
	})
	e.Spawn("client", func(p *Proc) {
		q.Put(1)
		q.Put(2)
		p.Sleep(5 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon blocked completion: %v", err)
	}
	if served != 2 {
		t.Fatalf("served %d, want 2", served)
	}
}

func TestDaemonOnlySimulationCompletes(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "never")
	e.SpawnDaemon("idle", func(p *Proc) { tr.Wait(p) })
	if err := e.Run(); err != nil {
		t.Fatalf("daemon-only simulation errored: %v", err)
	}
}

func TestDeadlockStillDetectedWithDaemons(t *testing.T) {
	e := NewEngine()
	tr := NewTrigger(e, "never")
	e.SpawnDaemon("idle", func(p *Proc) { tr.Wait(p) })
	e.Spawn("stuck", func(p *Proc) { tr.Wait(p) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck (trigger never)" {
		t.Fatalf("blocked = %v (daemons must not be listed)", dl.Blocked)
	}
}

func TestDaemonTrailingTimerRuns(t *testing.T) {
	// A daemon holding a pending timer keeps the clock moving until the
	// timer fires even after non-daemons exit, modelling a device
	// finishing trailing work.
	e := NewEngine()
	var daemonWoke Time
	e.SpawnDaemon("d", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		daemonWoke = p.Now()
	})
	e.Spawn("main", func(p *Proc) { p.Sleep(time.Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if daemonWoke != Time(10*time.Millisecond) {
		t.Fatalf("daemon woke at %v", daemonWoke)
	}
}

func TestStatsCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 3; i++ {
		e.Spawn("p", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Procs != 3 || st.Timers < 3 || st.Now != Time(time.Millisecond) {
		t.Fatalf("stats = %+v", st)
	}
}

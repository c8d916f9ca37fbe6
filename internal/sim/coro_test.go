package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// Teardown and lifecycle of coroutine processes: every way a run can end
// must leave no coroutine behind, and a process panic must surface on the
// caller's goroutine with its original value.

// noLeak fails the test unless the goroutine count returns to before. A
// stopped coroutine's goroutine exits as the switch back completes, so the
// count settles almost at once; the deadline only bounds a real leak.
func noLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// TestCoroNormalCompletion: processes that sleep, spawn and finish end the
// run normally, and the engine's pooled coroutines are stopped.
func TestCoroNormalCompletion(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	done := 0
	for i := 0; i < 8; i++ {
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			p.Spawn("child", func(p *Proc) {
				p.Yield()
				done++
			})
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 16 || len(e.live) != 0 || len(e.free) != 0 {
		t.Fatalf("done %d, live %d, pooled %d; want 16, 0, 0", done, len(e.live), len(e.free))
	}
	noLeak(t, before)
}

// TestCoroDeadlockReport: a deadlock unwinds every parked coroutine, runs
// their deferred calls, and reports byte for byte what the report has
// always said.
func TestCoroDeadlockReport(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	m := NewMutex(e, "rx")
	q := NewQueue[int](e, "cmds")
	never := NewTrigger(e, "never")
	unwound := 0
	e.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock(p)
		defer func() { unwound++ }()
		never.Wait(p)
	})
	e.Spawn("waiter", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(time.Microsecond)
		m.Lock(p)
	})
	e.SpawnDaemon("worker", func(p *Proc) {
		defer func() { unwound++ }()
		q.Get(p)
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want a deadlock", err)
	}
	const want = "sim: deadlock at 1µs; blocked: holder (trigger never), waiter (mutex rx)"
	if err.Error() != want {
		t.Fatalf("report\n got %s\nwant %s", err, want)
	}
	if unwound != 3 || len(e.live) != 0 || len(e.free) != 0 {
		t.Fatalf("unwound %d, live %d, pooled %d; want 3, 0, 0", unwound, len(e.live), len(e.free))
	}
	noLeak(t, before)
}

// TestCoroDaemonOnlyCompletion: once only daemons remain, parked on a
// queue and on a trigger, the run ends normally and tears them down.
func TestCoroDaemonOnlyCompletion(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	q := NewQueue[int](e, "work")
	idle := NewTrigger(e, "idle")
	served := 0
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			n, _ := q.Get(p)
			p.Sleep(time.Duration(n) * time.Microsecond)
			served++
		}
	})
	e.SpawnDaemon("watcher", func(p *Proc) { idle.Wait(p) })
	e.Spawn("main", func(p *Proc) {
		q.Put(2)
		q.Put(3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 2 || e.Now() != Time(5*time.Microsecond) || len(e.live) != 0 {
		t.Fatalf("served %d by %v, live %d; want 2 by 5µs, 0", served, e.Now(), len(e.live))
	}
	noLeak(t, before)
}

// TestCoroWindowedShutdownNeverStarted: shutting a shard down retires the
// processes that never ran without making coroutines for them, and unwinds
// the ones that did.
func TestCoroWindowedShutdownNeverStarted(t *testing.T) {
	before := runtime.NumGoroutine()
	e := newWindowedEngine()
	unwound := false
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(time.Hour)
	})
	e.runWindow(Time(time.Millisecond))
	var late []*Proc
	for i := 0; i < 3; i++ {
		late = append(late, e.Spawn("late", func(*Proc) { t.Error("process ran after shutdown") }))
	}
	e.shutdown(nil)
	if !unwound || e.alive != 0 || len(e.live) != 0 || len(e.free) != 0 {
		t.Fatalf("unwound %v, alive %d, live %d, pooled %d", unwound, e.alive, len(e.live), len(e.free))
	}
	for _, p := range late {
		if p.state != stateFinished || p.co != nil {
			t.Fatalf("never-started process: state %v, coroutine %v", p.state, p.co != nil)
		}
	}
	noLeak(t, before)
}

// TestCoroReuseWithinEngine: a process that starts after another finished
// runs on the finished one's coroutine, so a chain of short-lived
// processes keeps one coroutine per concurrently live process.
func TestCoroReuseWithinEngine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	var seen []*coro
	peak := 0
	var next func(p *Proc)
	next = func(p *Proc) {
		seen = append(seen, p.co)
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
		p.Sleep(time.Microsecond)
		if len(seen) < 50 {
			p.Spawn("link", next)
		}
		p.Sleep(time.Microsecond)
	}
	e.Spawn("link", next)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Each link spawns the next halfway through its life, so two links are
	// live at a time and their two coroutines alternate.
	for i := 2; i < len(seen); i++ {
		if seen[i] != seen[i-2] {
			t.Fatalf("link %d ran on a new coroutine", i)
		}
	}
	if seen[0] == seen[1] {
		t.Fatal("two live processes shared a coroutine")
	}
	if peak > before+2 {
		t.Fatalf("peak %d goroutines, want at most %d", peak, before+2)
	}
	noLeak(t, before)
}

// boom is a panic value compared by identity.
type boom struct{ msg string }

// panicWorld spawns on e a holder parked forever with a deferred call, and
// a process that panics with v after a microsecond.
func panicWorld(e *Engine, v any, unwound *int) {
	never := NewTrigger(e, "never")
	e.Spawn("holder", func(p *Proc) {
		defer func() { *unwound++ }()
		never.Wait(p)
	})
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic(v)
	})
}

// recovered runs fn and returns what it panicked with.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestCoroPanicReachesCaller: a process panic tears the serial engine down
// and continues from Run with the original value; a step process's panic
// does the same.
func TestCoroPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	v := &boom{"serial"}
	e := NewEngine()
	unwound := 0
	panicWorld(e, v, &unwound)
	if got := recovered(func() { e.Run() }); got != v {
		t.Fatalf("Run panicked with %v, want %v", got, v)
	}
	if unwound != 1 || len(e.live) != 0 || !e.stopped {
		t.Fatalf("unwound %d, live %d, stopped %v", unwound, len(e.live), e.stopped)
	}
	noLeak(t, before)

	e = NewEngine()
	unwound = 0
	panicWorld(e, &boom{"unused"}, &unwound)
	sv := &boom{"step"}
	spawnStep(e, func() string { return "xfer" }, func(*Proc) { panic(sv) })
	if got := recovered(func() { e.Run() }); got != sv {
		t.Fatalf("Run panicked with %v, want %v", got, sv)
	}
	if unwound != 1 || len(e.live) != 0 {
		t.Fatalf("unwound %d, live %d", unwound, len(e.live))
	}
	noLeak(t, before)
}

// TestCoroPanicReachesCallerPartitioned: a process panic on one shard of a
// K=2 run, asynchronous or in the zero-lookahead serial fallback, tears
// both shards down and continues from PartitionedEngine.Run.
func TestCoroPanicReachesCallerPartitioned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		lookahead time.Duration
		workers   int
	}{{"async", 10 * time.Microsecond, 2}, {"serial-fallback", 0, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			pe := NewPartitionedEngine(2, tc.lookahead)
			v := &boom{tc.name}
			unwound := 0
			panicWorld(pe.Shard(1), v, &unwound)
			never := NewTrigger(pe.Shard(0), "never0")
			pe.Shard(0).Spawn("other", func(p *Proc) {
				defer func() { unwound++ }()
				never.Wait(p)
			})
			if got := recovered(func() { pe.Run(tc.workers) }); got != v {
				t.Fatalf("Run panicked with %v, want %v", got, v)
			}
			if unwound != 2 {
				t.Fatalf("unwound %d parked processes, want 2", unwound)
			}
			for i := 0; i < 2; i++ {
				if s := pe.Shard(i); len(s.live) != 0 || !s.stopped {
					t.Fatalf("shard %d: live %d, stopped %v", i, len(s.live), s.stopped)
				}
			}
			noLeak(t, before)
		})
	}
}

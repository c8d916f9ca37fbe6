package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// scriptOp is one action of a scripted worker, runnable both as a blocking
// goroutine program and as a step process that parks through the *Step
// primitives.
type scriptOp struct {
	kind byte // 'a'cquire, 'r'elease, 'l'ink lock, 'L'ink unlock, 'm'utex lock, 'M'utex unlock, 's'leep, 'o'bserve
	n    int
	d    time.Duration
}

// scriptRes is the shared world of a scripted run.
type scriptRes struct {
	e    *Engine
	sem  *Semaphore
	link *Link
	mu   *Mutex
	log  []string
}

func newScriptRes() *scriptRes {
	e := NewEngine()
	return &scriptRes{e: e, sem: NewSemaphore(e, "bp", 2), link: NewLink(e, "tx", 1e9), mu: NewMutex(e, "rx")}
}

// observe records the instant and the engine's view of the running process.
func (r *scriptRes) observe(p *Proc) {
	r.log = append(r.log, fmt.Sprintf("%v %s", p.Now(), r.e.CurrentProcName()))
}

func (r *scriptRes) runBlocking(p *Proc, ops []scriptOp) {
	for _, op := range ops {
		switch op.kind {
		case 'a':
			r.sem.Acquire(p, op.n)
		case 'r':
			r.sem.Release(p, op.n)
		case 'l':
			r.link.Lock(p)
		case 'L':
			r.link.Unlock(p)
		case 'm':
			r.mu.Lock(p)
		case 'M':
			r.mu.Unlock(p)
		case 's':
			p.Sleep(op.d)
		case 'o':
			r.observe(p)
		}
	}
}

// stepScript is the same script as a step process: pc is the state it
// records before each primitive that may park.
type stepScript struct {
	r   *scriptRes
	ops []scriptOp
	pc  int
}

func (s *stepScript) step(p *Proc) {
	r := s.r
	for s.pc < len(s.ops) {
		op := s.ops[s.pc]
		s.pc++
		switch op.kind {
		case 'a':
			if !r.sem.AcquireStep(p, op.n) {
				return
			}
		case 'r':
			r.sem.Release(p, op.n)
		case 'l':
			if !r.link.LockStep(p) {
				return
			}
		case 'L':
			r.link.Unlock(p)
		case 'm':
			if !r.mu.LockStep(p) {
				return
			}
		case 'M':
			r.mu.Unlock(p)
		case 's':
			if !p.SleepStep(op.d) {
				return
			}
		case 'o':
			r.observe(p)
		}
	}
}

// stepFunc adapts a name function and a step body to Stepper.
type stepFunc struct {
	name func() string
	fn   func(p *Proc)
}

func (s *stepFunc) Step(p *Proc)     { s.fn(p) }
func (s *stepFunc) StepName() string { return s.name() }

// spawnStep spawns fn as a step process named by nameFn.
func spawnStep(e *Engine, nameFn func() string, fn func(p *Proc)) *Proc {
	p := new(Proc)
	e.SpawnStep(&stepFunc{name: nameFn, fn: fn}, p)
	return p
}

// randomScripts builds contended worker scripts. Each round takes a random
// non-empty subset of the resources in one global order (semaphore, link,
// mutex), so no run can deadlock, and any of them can queue several
// waiters.
func randomScripts(rng *rand.Rand, workers int) [][]scriptOp {
	us := func(k int) time.Duration { return time.Duration(rng.Intn(k)) * time.Microsecond }
	scripts := make([][]scriptOp, workers)
	for i := range scripts {
		var ops []scriptOp
		for rounds := 1 + rng.Intn(3); rounds > 0; rounds-- {
			take := 1 + rng.Intn(7) // bit 0 semaphore, bit 1 link, bit 2 mutex
			n := 1 + rng.Intn(2)
			ops = append(ops, scriptOp{kind: 's', d: us(3)}, scriptOp{kind: 'o'})
			for bit, kind := range []byte{'a', 'l', 'm'} {
				if take&(1<<bit) != 0 {
					ops = append(ops, scriptOp{kind: kind, n: n}, scriptOp{kind: 's', d: us(2)})
				}
			}
			ops = append(ops, scriptOp{kind: 'o'}, scriptOp{kind: 's', d: us(4)})
			release := []byte{'r', 'L', 'M'}
			for bit := len(release) - 1; bit >= 0; bit-- {
				if take&(1<<bit) != 0 {
					ops = append(ops, scriptOp{kind: release[bit], n: n})
				}
			}
			ops = append(ops, scriptOp{kind: 's', d: 0}, scriptOp{kind: 'o'})
		}
		scripts[i] = ops
	}
	return scripts
}

// runScripts runs every script, as a step process where asStep says so and
// as a goroutine otherwise, spawned in index order with lazy names.
func runScripts(t *testing.T, scripts [][]scriptOp, asStep func(i int) bool) ([]string, Time, Stats) {
	t.Helper()
	r := newScriptRes()
	for i, ops := range scripts {
		name := fmt.Sprintf("w%d", i)
		nameFn := func() string { return name }
		if asStep(i) {
			s := &stepScript{r: r, ops: ops}
			spawnStep(r.e, nameFn, s.step)
		} else {
			r.e.SpawnLazy(nameFn, func(p *Proc) { r.runBlocking(p, ops) })
		}
	}
	if err := r.e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.e.live) != 0 {
		t.Fatalf("%d processes left in the live set after Run", len(r.e.live))
	}
	return r.log, r.e.Now(), r.e.Stats()
}

// TestStepMixedWaitersMatchGoroutines: goroutine and step waiters queued on
// one Mutex, Link and Semaphore give exactly the interleaving, the
// CurrentProcName view and the end time of an all-goroutine run.
func TestStepMixedWaitersMatchGoroutines(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		scripts := randomScripts(rand.New(rand.NewSource(seed)), 7)
		wantLog, wantEnd, wantStats := runScripts(t, scripts, func(int) bool { return false })
		for _, mix := range []struct {
			name string
			fn   func(i int) bool
		}{{"odd", func(i int) bool { return i%2 == 1 }}, {"all", func(int) bool { return true }}} {
			log, end, st := runScripts(t, scripts, mix.fn)
			if end != wantEnd || !reflect.DeepEqual(log, wantLog) {
				t.Fatalf("seed %d, %s steps: end %v (want %v)\n got %v\nwant %v", seed, mix.name, end, wantEnd, log, wantLog)
			}
			if st != wantStats {
				t.Fatalf("seed %d, %s steps: stats %+v, want %+v", seed, mix.name, st, wantStats)
			}
		}
	}
}

// TestStepCurrentProcName: inside a step the engine reports the step's lazy
// name; outside any process it reports "".
func TestStepCurrentProcName(t *testing.T) {
	e := NewEngine()
	var seen []string
	calls := 0
	spawnStep(e, func() string { return "eager 3->1" }, func(p *Proc) {
		seen = append(seen, e.CurrentProcName())
		calls++
		if calls == 1 && !p.SleepStep(time.Microsecond) {
			return
		}
		seen = append(seen, e.CurrentProcName())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"eager 3->1", "eager 3->1", "eager 3->1"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("CurrentProcName inside step = %q, want %q", seen, want)
	}
	if got := e.CurrentProcName(); got != "" {
		t.Fatalf("CurrentProcName after Run = %q", got)
	}
	if e.Now() != Time(time.Microsecond) || e.Stats().Procs != 1 {
		t.Fatalf("end %v, procs %d", e.Now(), e.Stats().Procs)
	}
}

// stuckWorld parks a waiter named "eager 1->0" behind a holder that never
// releases the mutex, semaphore and link, one waiter per primitive.
func stuckWorld(asStep bool) error {
	e := NewEngine()
	m := NewMutex(e, "m")
	s := NewSemaphore(e, "bp", 1)
	l := NewLink(e, "n0.tx", 1e9)
	never := NewTrigger(e, "never")
	e.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		s.Acquire(p, 1)
		l.Lock(p)
		never.Wait(p)
	})
	waiters := []struct {
		name  string
		block func(p *Proc)
		park  func(p *Proc) bool
	}{
		{"eager 1->0", m.Lock, m.LockStep},
		{"eager 2->0", func(p *Proc) { s.Acquire(p, 1) }, func(p *Proc) bool { return s.AcquireStep(p, 1) }},
		{"rndv 3->0", l.Lock, l.LockStep},
	}
	for _, w := range waiters {
		nameFn := func() string { return w.name }
		if asStep {
			spawnStep(e, nameFn, func(p *Proc) {
				if !w.park(p) {
					return
				}
				panic("waiter acquired a held primitive")
			})
		} else {
			e.SpawnLazy(nameFn, func(p *Proc) { w.block(p) })
		}
	}
	return e.Run()
}

// TestStepDeadlockReport: a deadlock names parked step processes by their
// lazy names and wait labels, byte for byte as it names goroutines.
func TestStepDeadlockReport(t *testing.T) {
	want := stuckWorld(false)
	var got error
	waitNoHang(t, "deadlock teardown", func() { got = stuckWorld(true) })
	var dl *DeadlockError
	if !errors.As(got, &dl) {
		t.Fatalf("step run: got %v, want a deadlock", got)
	}
	if want == nil || got.Error() != want.Error() {
		t.Fatalf("step deadlock report\n got %v\nwant %v", got, want)
	}
	for _, s := range []string{"eager 1->0 (mutex m)", "eager 2->0 (semaphore bp)", "rndv 3->0 (mutex link n0.tx)"} {
		if !strings.Contains(got.Error(), s) {
			t.Fatalf("report %q lacks %q", got, s)
		}
	}
}

// waitNoHang fails the test if fn does not return within a generous bound.
func waitNoHang(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s hung", what)
	}
}

// TestStepTeardownDaemonOnly: a daemon that spawns step processes, parked
// forever once they are done, ends the run normally. Step processes are
// never daemons, so none can still be alive at a daemon-only completion;
// the live set drains and no goroutine is left behind.
func TestStepTeardownDaemonOnly(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	q := NewQueue[int](e, "work")
	m := NewMutex(e, "nic")
	finished := 0
	e.SpawnDaemon("nic.daemon", func(p *Proc) {
		for {
			n, _ := q.Get(p)
			for i := 0; i < n; i++ {
				state := 0
				spawnStep(e, func() string { return "xfer" }, func(p *Proc) {
					if state == 0 {
						state = 1
						if !m.LockStep(p) {
							return
						}
					}
					if state == 1 {
						state = 2
						if !p.SleepStep(time.Microsecond) {
							return
						}
					}
					m.Unlock(p)
					finished++
				})
			}
		}
	})
	e.Spawn("main", func(p *Proc) { q.Put(3) })
	var err error
	waitNoHang(t, "daemon-only completion", func() { err = e.Run() })
	if err != nil {
		t.Fatal(err)
	}
	if finished != 3 || e.Now() != Time(3*time.Microsecond) {
		t.Fatalf("finished %d transfers by %v, want 3 by 3µs", finished, e.Now())
	}
	if len(e.live) != 0 || e.Stats().Procs != 5 {
		t.Fatalf("live %d, procs %d; want 0 and 5", len(e.live), e.Stats().Procs)
	}
	// The checker below runs on one goroutine of its own.
	waitNoHang(t, "goroutine unwind", func() {
		for runtime.NumGoroutine() > before+1 {
			runtime.Gosched()
		}
	})
}

// TestStepTeardownShutdown: a windowed shard torn down by the partition
// driver with step processes parked on a mutex and on a timer, and one
// still ready, returns and retires them all.
func TestStepTeardownShutdown(t *testing.T) {
	e := newWindowedEngine()
	m := NewMutex(e, "rx")
	e.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(time.Hour)
	})
	spawnStep(e, func() string { return "locker" }, func(p *Proc) {
		if m.LockStep(p) {
			t.Error("locker acquired a held mutex")
		}
	})
	spawnStep(e, func() string { return "sleeper" }, func(p *Proc) {
		if p.SleepStep(time.Hour) {
			t.Error("hour-long sleep was a no-op")
		}
	})
	waitNoHang(t, "window", func() { e.runWindow(Time(time.Millisecond)) })
	spawnStep(e, func() string { return "ready" }, func(*Proc) { t.Error("step ran after shutdown") })
	waitNoHang(t, "shutdown", func() { e.shutdown(nil) })
	if e.alive != 0 || len(e.live) != 0 {
		t.Fatalf("alive %d, live %d after shutdown", e.alive, len(e.live))
	}
}

// TestStepTeardownPartitionedDeadlock: a partitioned run whose shards hold
// parked step processes reports the merged deadlock and returns.
func TestStepTeardownPartitionedDeadlock(t *testing.T) {
	pe := NewPartitionedEngineMatrix(uniformLA(2, time.Microsecond))
	for i := 0; i < 2; i++ {
		e := pe.Shard(i)
		m := NewMutex(e, fmt.Sprintf("rx%d", i))
		never := NewTrigger(e, "never")
		e.Spawn(fmt.Sprintf("holder%d", i), func(p *Proc) {
			m.Lock(p)
			never.Wait(p)
		})
		name := fmt.Sprintf("eager %d->%d", 1-i, i)
		slept := false
		spawnStep(e, func() string { return name }, func(p *Proc) {
			if !slept {
				slept = true
				if !p.SleepStep(time.Duration(i+1) * time.Microsecond) {
					return
				}
			}
			m.LockStep(p)
		})
	}
	var err error
	waitNoHang(t, "partitioned run", func() { err = pe.Run(2) })
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want a deadlock", err)
	}
	for _, s := range []string{"eager 1->0 (mutex rx0)", "eager 0->1 (mutex rx1)"} {
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("report %q lacks %q", err, s)
		}
	}
}

// TestStepTeardownDeferredRelease: a goroutine that unlocks a mutex in a
// deferred call while teardown unwinds it wakes a step process teardown
// has already retired; the run still ends with its deadlock report.
func TestStepTeardownDeferredRelease(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "rx")
	never := NewTrigger(e, "never")
	e.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock(p)
		never.Wait(p)
	})
	spawnStep(e, func() string { return "eager 1->0" }, func(p *Proc) { m.LockStep(p) })
	var err error
	waitNoHang(t, "teardown", func() { err = e.Run() })
	var dl *DeadlockError
	if !errors.As(err, &dl) || !strings.Contains(err.Error(), "eager 1->0 (mutex rx)") {
		t.Fatalf("got %v, want a deadlock naming the parked step", err)
	}
}

// TestStepPrimitiveRejectsGoroutine: a *Step primitive that would park a
// goroutine process panics instead of returning with the process marked
// parked but still running. The holder never releases, so nothing tries to
// wake the misused waiter afterwards.
func TestStepPrimitiveRejectsGoroutine(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "m")
	never := NewTrigger(e, "never")
	var got any
	e.Spawn("a", func(p *Proc) {
		m.Lock(p)
		never.Wait(p)
	})
	e.Spawn("b", func(p *Proc) {
		defer func() { got = recover() }()
		m.LockStep(p)
	})
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("got %v, want the holder's deadlock", err)
	}
	if got == nil {
		t.Fatal("LockStep parked a goroutine process without panicking")
	}
}

// TestLiveSetDropsFinishedProcesses: a finished process, goroutine or step,
// leaves the engine's live set at once, so nothing it captured stays
// reachable through the engine; Stats still counts every spawn.
func TestLiveSetDropsFinishedProcesses(t *testing.T) {
	e := NewEngine()
	e.Spawn("main", func(p *Proc) {
		for i := 0; i < 50; i++ {
			slept := false
			spawnStep(e, func() string { return "step" }, func(p *Proc) {
				if !slept {
					slept = true
					p.SleepStep(time.Duration(i) * time.Microsecond)
				}
			})
			p.Spawn("g", func(p *Proc) { p.Sleep(time.Duration(i) * time.Microsecond) })
		}
		p.Sleep(time.Millisecond)
		live, alive := len(e.live), e.alive
		if live != 1 || alive != 1 {
			t.Errorf("live set %d, alive %d; want only the caller", live, alive)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Procs; got != 101 {
		t.Fatalf("Stats.Procs = %d, want 101", got)
	}
}

// ownedStep is a step that carries its own Proc, as mpi.wireXfer does.
type ownedStep struct {
	proc Proc
	ran  bool
}

func (s *ownedStep) Step(*Proc)       { s.ran = true }
func (s *ownedStep) StepName() string { return "owned" }

// TestSpawnStepOneAllocation: a step whose Proc is embedded in its state
// costs exactly the one allocation of that state to spawn, run and retire.
func TestSpawnStepOneAllocation(t *testing.T) {
	e := NewEngine()
	var allocs float64
	e.Spawn("main", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			s := &ownedStep{}
			e.SpawnStep(s, &s.proc)
			p.Yield()
			if !s.ran {
				t.Error("step did not run")
			}
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Fatalf("spawning a step allocated %v times, want 1", allocs)
	}
}

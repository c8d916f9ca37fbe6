// Package sim implements a deterministic virtual-time discrete-event
// simulation (DES) kernel.
//
// Simulated activities ("processes") cooperate with a virtual clock: at any
// instant exactly one process executes, so process code may freely share
// data structures without host-level locking. When the running process
// blocks on a simulation primitive (Sleep, a Trigger, a Mutex, ...), the
// engine resumes the next ready process, or, when none is ready, advances
// the virtual clock to the earliest pending timer.
//
// A process is either a coroutine (Spawn, SpawnLazy, SpawnDaemon), which
// may block anywhere, or an inline step process (SpawnStep), which the
// scheduler calls on its own stack. One scheduler loop, run by the
// goroutine that calls Run (or, in a partitioned run, by the worker
// stepping the shard), pops the next ready process and either calls its
// step or resumes its coroutine; a blocking primitive parks the process by
// yielding back to that loop. Control never passes between goroutines
// through channels, so a switch costs no Go-scheduler wakeup. Both kinds
// share one ready queue, one timer order and the same waiter queues, so the
// kind never changes the event order. A step must keep one rule: it never
// blocks. It parks only through the *Step primitives (Mutex.LockStep,
// Link.LockStep, Semaphore.AcquireStep, Proc.SleepStep), then returns, and
// is called again from the state it recorded once it is woken. Simulated
// programs are coroutines; per-message runtime machinery can be steps.
//
// An engine has a single owner and no host lock: the goroutine running its
// scheduler loop, and the coroutine it has resumed while it waits, are the
// only code that touches it, one at a time. Other goroutines may use an
// engine only before Run starts or after it returns; a partitioned run
// hands each shard from one worker to the next under the
// PartitionedEngine's own mutex, which orders the hand-off. Code that runs
// in scheduler context — an After function, a Trigger.OnFire callback, a
// step, a cross-partition event (PartitionedEngine.Cross) — keeps one
// rule: it must not block. Every non-blocking call (Fire,
// FireAfter, After, Queue.Put, Spawn, ...) is allowed there.
//
// A coroutine is made when its process first runs, not at spawn, and by
// the loop's goroutine, so it inherits that goroutine's pprof labels: a
// profile charges process code to whatever entry point drives the
// simulation. A finished process leaves its coroutine to the engine for
// the next process to start, and the engine stops the pooled ones when the
// run ends. Teardown resumes each parked coroutine once more, so it unwinds
// through its deferred calls; a process that panics tears the engine down
// and the panic continues from Run. The coroutines come from iter.Pull,
// whose one call sits in a file built only with Go 1.23 or later, so the
// module still declares go 1.22.
//
// The engine is the substrate for every other subsystem in this repository:
// the OpenCL-like device runtime (internal/cl), the MPI-like message-passing
// runtime (internal/mpi), and the clMPI extension built on both
// (internal/clmpi). Determinism matters: runs are reproducible bit-for-bit,
// which the test suite relies on heavily.
//
// A simulation that can make no further progress while processes are still
// blocked is reported as a deadlock: Run returns a *DeadlockError naming the
// stuck processes. This turns scheduling bugs (the exact class of bug the
// clMPI paper is about) into loud test failures instead of hangs.
package sim

import "time"

// Time is an instant of virtual time, in nanoseconds since the start of the
// simulation. The zero Time is the simulation start.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and s (t - s).
func (t Time) Sub(s Time) time.Duration { return time.Duration(t - s) }

// Duration converts t to the duration elapsed since the simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since the simulation start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return time.Duration(t).String() }

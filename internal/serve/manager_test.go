package serve

import (
	"errors"

	"repro/internal/obs"
	"sync/atomic"
	"testing"
	"time"
)

// stubManager builds a manager whose point runner blocks until released,
// reporting each started point on the started channel.
func stubManager(t *testing.T, workers int) (m *Manager, started chan int, release chan struct{}) {
	t.Helper()
	m, err := NewManager(Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	started = make(chan int, 64)
	release = make(chan struct{})
	m.runPoint = func(spec JobSpec, i int, _ *obs.Sim) (PointResult, error) {
		started <- i
		<-release
		return PointResult{Strategy: "stub", Bytes: int64(i + 1), MBps: 1}, nil
	}
	return m, started, release
}

// TestCancelMidShard: canceling a job whose grid is mid-flight lets the
// claimed points finish (a running engine cannot be interrupted) and aborts
// every unclaimed point, landing the job in StatusCanceled with a partial
// progress record.
func TestCancelMidShard(t *testing.T) {
	m, started, release := stubManager(t, 2)
	job, err := m.Submit(JobSpec{
		System:     "cichlid",
		Strategies: []string{"pinned"},
		Sizes:      []int64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.NPoints != 8 {
		t.Fatalf("NPoints = %d, want 8", job.NPoints)
	}
	// Two workers are now inside runPoint; the other six points are
	// unclaimed.
	<-started
	<-started
	if !m.Cancel(job.ID) {
		t.Fatal("Cancel: job not found")
	}
	close(release)
	m.Wait(job)

	if got := job.StatusNow(); got != StatusCanceled {
		t.Fatalf("status = %s, want %s", got, StatusCanceled)
	}
	if !errors.Is(job.Err(), ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", job.Err())
	}
	st := m.StatusOf(job, true)
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want exactly the 2 in-flight points", st.Completed)
	}
	if st.Result != nil {
		t.Fatal("canceled job has a result")
	}
	if got := m.Counter("clmpi_serve_jobs_canceled_total"); got != 1 {
		t.Fatalf("serve.jobs.canceled = %v, want 1", got)
	}
	// A canceled job must not poison the cache.
	if _, ok := m.Result(job.Hash); ok {
		t.Fatal("canceled job was cached")
	}
}

// TestCancelWhileQueuedForSlot: a point still waiting for a pool slot
// (behind another job) aborts immediately on cancel — queue position is not
// a commitment.
func TestCancelWhileQueuedForSlot(t *testing.T) {
	m, started, release := stubManager(t, 1)
	job1, err := m.Submit(JobSpec{System: "cichlid", Strategies: []string{"pinned"}, Sizes: []int64{1 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	<-started // job1 holds the only slot
	job2, err := m.Submit(JobSpec{System: "cichlid", Strategies: []string{"pinned"}, Sizes: []int64{2 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for job2's worker to be queued on the semaphore.
	deadline := time.Now().Add(5 * time.Second)
	for m.met.queueDepth.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job2 never queued for a slot")
		}
		time.Sleep(time.Millisecond)
	}
	m.Cancel(job2.ID)
	m.Wait(job2)
	if got := job2.StatusNow(); got != StatusCanceled {
		t.Fatalf("job2 status = %s, want %s", got, StatusCanceled)
	}
	if got := m.StatusOf(job2, false).Completed; got != 0 {
		t.Fatalf("job2 completed = %d, want 0", got)
	}
	close(release)
	m.Wait(job1)
	if got := job1.StatusNow(); got != StatusDone {
		t.Fatalf("job1 status = %s, want %s (err %v)", got, StatusDone, job1.Err())
	}
	if m.met.queueDepth.Value() != 0 || m.met.pointsInflight.Value() != 0 {
		t.Fatalf("pool gauges not drained: queue=%v inflight=%v",
			m.met.queueDepth.Value(), m.met.pointsInflight.Value())
	}
}

// TestFailedPointFailsJob: a simulation error lands the job in StatusFailed
// with the deterministic lowest-index error, and nothing is cached.
func TestFailedPointFailsJob(t *testing.T) {
	m, err := NewManager(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	m.runPoint = func(spec JobSpec, i int, _ *obs.Sim) (PointResult, error) {
		if i == 1 {
			return PointResult{}, boom
		}
		return PointResult{Strategy: "stub", Bytes: int64(i + 1), MBps: 1}, nil
	}
	job, err := m.Submit(JobSpec{System: "cichlid", Strategies: []string{"pinned"}, Sizes: []int64{1 << 10, 2 << 10, 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	m.Wait(job)
	if got := job.StatusNow(); got != StatusFailed {
		t.Fatalf("status = %s, want %s", got, StatusFailed)
	}
	if !errors.Is(job.Err(), boom) {
		t.Fatalf("err = %v, want boom", job.Err())
	}
	if _, ok := m.Result(job.Hash); ok {
		t.Fatal("failed job was cached")
	}
}

// TestSubmitInvalid: validation errors surface at Submit, before any job is
// registered — including a partition count no point's ranks can span, which
// would otherwise fail inside a sweep goroutine.
func TestSubmitInvalid(t *testing.T) {
	m, err := NewManager(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []JobSpec{
		{System: "bluegene"},
		{System: "cichlid", Workload: "matchscale", Ranks: []int{2}, ParallelWorld: 3},
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Fatalf("invalid spec %+v accepted", spec)
		}
	}
	if len(m.Jobs()) != 0 {
		t.Fatal("invalid job registered")
	}
}

// TestSubscribeReplaysAndStreams: a subscriber attached mid-run sees every
// point exactly once — the replay covers the past, the channel the rest.
func TestSubscribeReplaysAndStreams(t *testing.T) {
	m, started, release := stubManager(t, 1)
	job, err := m.Submit(JobSpec{System: "cichlid", Strategies: []string{"pinned"}, Sizes: []int64{1 << 10, 2 << 10, 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	release <- struct{}{} // finish point 0
	// Point 0 may still be between runPoint return and recordPoint; poll
	// until it lands.
	for m.StatusOf(job, false).Completed < 1 {
		time.Sleep(time.Millisecond)
	}
	past, live := job.Subscribe()
	if len(past) != 1 || past[0].Index != 0 {
		t.Fatalf("replay = %+v, want point 0", past)
	}
	if live == nil {
		t.Fatal("running job returned no live channel")
	}
	go func() { // drive the two remaining points
		for i := 0; i < 2; i++ {
			<-started
			release <- struct{}{}
		}
	}()
	seen := map[int]bool{0: true}
	for ev := range live {
		if seen[ev.Index] {
			t.Errorf("point %d delivered twice", ev.Index)
		}
		seen[ev.Index] = true
	}
	m.Wait(job)
	if len(seen) != 3 {
		t.Fatalf("saw %d points, want 3", len(seen))
	}
	// Subscribing after the end replays everything with no channel.
	past, live = job.Subscribe()
	if len(past) != 3 || live != nil {
		t.Fatalf("post-finish Subscribe: %d events, live=%v", len(past), live != nil)
	}
}

// TestWeightedSlotAccounting: a matchscale job whose points each drive a
// ParallelWorld-wide partitioned engine claims that many pool slots per
// point, so the total number of concurrently executing goroutine-partitions
// never exceeds the configured worker count — the invariant that keeps a
// daemon full of partitioned jobs from oversubscribing its host.
func TestWeightedSlotAccounting(t *testing.T) {
	m, err := NewManager(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var occ, peak, calls atomic.Int64
	m.runPoint = func(spec JobSpec, i int, _ *obs.Sim) (PointResult, error) {
		cur := occ.Add(int64(spec.slotWeight()))
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		calls.Add(1)
		time.Sleep(2 * time.Millisecond)
		occ.Add(-int64(spec.slotWeight()))
		return PointResult{Ranks: spec.Ranks[i], SimMS: 1}, nil
	}
	job, err := m.Submit(JobSpec{
		System:        "cichlid",
		Workload:      "matchscale",
		Ranks:         []int{2, 3, 4, 5, 6, 7, 8, 9},
		ParallelWorld: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Wait(job)
	if st := job.StatusNow(); st != StatusDone {
		t.Fatalf("status = %s, err = %v", st, job.Err())
	}
	if got := calls.Load(); got != 8 {
		t.Fatalf("ran %d points, want 8", got)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak concurrent goroutine-partitions = %d, exceeds the 4-slot pool", p)
	}
}

// TestWeightedJobsNoDeadlock: multi-slot claims are atomic, so two jobs
// whose points each need most of the pool serialize instead of deadlocking
// on partially acquired slots. A point wider than the whole pool clamps to
// the pool width (the unavoidable floor) rather than waiting forever.
func TestWeightedJobsNoDeadlock(t *testing.T) {
	m, err := NewManager(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m.runPoint = func(spec JobSpec, i int, _ *obs.Sim) (PointResult, error) {
		time.Sleep(time.Millisecond)
		return PointResult{Ranks: spec.Ranks[i], SimMS: 1}, nil
	}
	a, err := m.Submit(JobSpec{System: "cichlid", Workload: "matchscale",
		Ranks: []int{3, 4, 5}, ParallelWorld: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(JobSpec{System: "cichlid", Workload: "matchscale",
		Ranks: []int{8, 9, 10}, ParallelWorld: 8}) // wider than the pool
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { m.Wait(a); m.Wait(b); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("weighted jobs deadlocked")
	}
	if a.StatusNow() != StatusDone || b.StatusNow() != StatusDone {
		t.Fatalf("status a=%s b=%s", a.StatusNow(), b.StatusNow())
	}
}

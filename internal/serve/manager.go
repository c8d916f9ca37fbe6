package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// ErrCanceled is the error a canceled job's pending points report; a job
// that stops because of it finishes in StatusCanceled rather than
// StatusFailed.
var ErrCanceled = errors.New("serve: job canceled")

// Status is a job's lifecycle state.
type Status string

const (
	// StatusRunning jobs have a runner goroutine sharding points into the
	// worker pool (the points themselves may still be queued for a slot).
	StatusRunning Status = "running"
	// StatusDone jobs have a result (freshly computed or from cache).
	StatusDone Status = "done"
	// StatusFailed jobs hit a simulation or validation error.
	StatusFailed Status = "failed"
	// StatusCanceled jobs were canceled before all points finished.
	StatusCanceled Status = "canceled"
)

// Options configure a Manager.
type Options struct {
	// Workers bounds how many simulation points run concurrently across
	// all jobs (default sweep.Workers(), i.e. the host's cores).
	Workers int
	// CacheEntries is the in-memory result cache capacity (default 1024).
	CacheEntries int
	// CacheDir, when non-empty, persists results to disk so they survive
	// eviction and restarts.
	CacheDir string
	// ParallelWorld, when > 1, is applied to submitted matchscale jobs that
	// did not choose a parallel_world themselves, before normalization — so
	// the default is part of the job's canonical spec and content address,
	// and two daemons with different defaults never alias cache entries.
	ParallelWorld int
	// Systems registers extra named systems, keyed lower-case (clmpi-serve
	// loads them from -systems spec files). Submit rewrites a job naming
	// one of them into the equivalent inline-spec job before normalization:
	// the name is daemon-local convenience, but the content address is the
	// spec itself, so two daemons registering different specs under one
	// name never alias cache entries. Built-in preset names cannot be
	// shadowed.
	Systems map[string]cluster.System
}

// PointEvent is one per-point progress notification: points complete in
// claim order under the pool, so indexes arrive unordered; Index places the
// point in the grid.
type PointEvent struct {
	Index int         `json:"index"`
	Point PointResult `json:"point"`
}

// Job is one submitted sweep. Identity fields are immutable after Submit;
// progress and outcome are read through snapshot methods.
type Job struct {
	ID      string
	Hash    string
	Spec    JobSpec // normalized
	NPoints int
	Cached  bool // result came from the cache, no simulation ran

	mu        sync.Mutex
	status    Status
	err       error
	result    []byte
	completed int
	events    []PointEvent
	subs      []chan PointEvent
	done      chan struct{}
	cancel    context.CancelFunc
	started   time.Time
	finished  time.Time
}

// slotSem is a weighted counting semaphore over the worker pool: a
// partitioned point claims as many slots as it drives goroutine-partitions,
// and the claim is atomic — all n slots or none — so two multi-slot jobs
// can never deadlock holding partial claims the other is waiting for.
type slotSem struct {
	mu   sync.Mutex
	cond *sync.Cond
	free int
}

func newSlotSem(n int) *slotSem {
	s := &slotSem{free: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// acquire blocks until n slots are simultaneously free and takes them, or
// returns ctx's error once it is done. n must not exceed the semaphore's
// capacity (callers clamp to the pool width).
func (s *slotSem) acquire(ctx context.Context, n int) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cond.Broadcast()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.free < n {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.free -= n
	return nil
}

// release returns n slots and wakes every waiter (each re-checks its own
// demand; a single Signal could wake a waiter whose demand still is not
// met while a satisfiable one sleeps).
func (s *slotSem) release(n int) {
	s.mu.Lock()
	s.free += n
	s.mu.Unlock()
	s.cond.Broadcast()
}

// maxRetainedJobs bounds the job table: Submit keeps at most this many
// terminal jobs, newest first, so a long-lived daemon does not hold every
// result and per-point event log it ever produced. Running jobs are never
// pruned.
const maxRetainedJobs = 4096

// Manager owns the worker pool, the job table, the result cache, and the
// service's observability surface (a metrics registry; /tracez renders the
// job table at request time).
type Manager struct {
	opts  Options
	cache *Cache
	met   *serveMetrics
	sem   *slotSem
	start time.Time

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    int
	retain int // terminal-job cap; maxRetainedJobs outside tests

	// runPoint is the point runner — RunPointObs in production, overridden
	// by tests that need controllable point timing.
	runPoint func(JobSpec, int, *obs.Sim) (PointResult, error)
}

// NewManager creates a manager and its cache.
func NewManager(opts Options) (*Manager, error) {
	if opts.Workers <= 0 {
		opts.Workers = sweep.Workers()
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 1024
	}
	cache, err := NewCache(opts.CacheEntries, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	return &Manager{
		opts:     opts,
		cache:    cache,
		met:      newServeMetrics(opts.Workers, cache.Len),
		sem:      newSlotSem(opts.Workers),
		start:    time.Now(),
		jobs:     make(map[string]*Job),
		retain:   maxRetainedJobs,
		runPoint: RunPointObs,
	}, nil
}

// Workers reports the pool width.
func (m *Manager) Workers() int { return m.opts.Workers }

// Submit normalizes and registers a job. A content-address hit completes the
// job immediately from the cache (Cached=true, no simulation); a miss starts
// a runner goroutine that shards the grid into the pool. The returned job is
// safe to poll, subscribe to, wait on, and cancel.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if spec.Workload == "matchscale" && spec.ParallelWorld == 0 && m.opts.ParallelWorld > 1 {
		spec.ParallelWorld = m.opts.ParallelWorld
	}
	if name := strings.ToLower(strings.TrimSpace(spec.System)); len(spec.SystemSpec) == 0 {
		if sys, ok := m.opts.Systems[name]; ok {
			if _, builtin := cluster.Preset(name); !builtin {
				compact, err := cluster.EncodeSpecCompact(sys)
				if err != nil {
					return nil, fmt.Errorf("serve: registered system %q: %w", name, err)
				}
				spec.System, spec.SystemSpec = "", compact
			}
		}
	}
	norm, err := Normalize(spec)
	if err != nil {
		return nil, err
	}
	hash := Hash(norm)
	m.met.submitted.Add(1)

	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("j%d", m.seq)
	m.mu.Unlock()
	job := &Job{
		ID:      id,
		Hash:    hash,
		Spec:    norm,
		NPoints: norm.NumPoints(),
		done:    make(chan struct{}),
		started: time.Now(),
	}

	if data, ok := m.cache.Get(hash); ok {
		m.met.cacheHits.Add(1)
		m.met.rec.Record(0, obs.KindCacheHit, -1, -1, 0, 0)
		m.met.rec.Record(0, obs.KindJobAdmit, -1, -1, int64(job.NPoints), 1)
		job.Cached = true
		job.status = StatusDone
		job.result = data
		job.completed = job.NPoints
		job.finished = time.Now()
		close(job.done)
		m.met.jobsCompleted.Add(1)
		m.met.jobWall.Observe(job.finished.Sub(job.started).Seconds())
		m.met.rec.Record(0, obs.KindJobDone, -1, -1, obs.JobDone, int64(job.finished.Sub(job.started)))
	} else {
		m.met.cacheMisses.Add(1)
		m.met.rec.Record(0, obs.KindCacheMiss, -1, -1, 0, 0)
		m.met.rec.Record(0, obs.KindJobAdmit, -1, -1, int64(job.NPoints), 0)
		ctx, cancel := context.WithCancel(context.Background())
		job.cancel = cancel
		job.status = StatusRunning
		m.met.jobsInflight.Add(1)
		go m.run(ctx, job)
	}

	m.mu.Lock()
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	if len(m.order) > m.retain {
		m.prune()
	}
	m.met.jobsRetained.Set(float64(len(m.order)))
	m.mu.Unlock()
	return job, nil
}

// prune drops the oldest terminal jobs beyond the retention cap, keeping
// every running job. Callers hold m.mu.
func (m *Manager) prune() {
	terminal := 0
	for i := len(m.order) - 1; i >= 0; i-- {
		select {
		case <-m.jobs[m.order[i]].done:
			if terminal++; terminal > m.retain {
				delete(m.jobs, m.order[i])
			}
		default: // running
		}
	}
	m.order = slices.DeleteFunc(m.order, func(id string) bool {
		_, ok := m.jobs[id]
		return !ok
	})
}

// run executes a job's grid through the shared pool and finishes the job.
func (m *Manager) run(ctx context.Context, job *Job) {
	// A partitioned point drives slotWeight goroutines, so it claims that
	// many pool slots and the job's own point fan-out shrinks to keep
	// points-in-flight x weight within the pool — the same arithmetic as
	// sweep.MapWeighted, with the clamp below as the unavoidable floor when
	// one point is wider than the whole pool.
	weight := job.Spec.slotWeight()
	if weight > m.opts.Workers {
		weight = m.opts.Workers
	}
	width := m.opts.Workers / weight
	if width < 1 {
		width = 1
	}
	if width > job.NPoints {
		width = job.NPoints
	}
	points, err := sweep.MapN(width, job.NPoints, func(i int) (PointResult, error) {
		if ctx.Err() != nil {
			return PointResult{}, ErrCanceled
		}
		m.met.queueDepth.Add(1)
		waitStart := time.Now()
		if m.sem.acquire(ctx, weight) != nil {
			m.met.queueDepth.Add(-1)
			return PointResult{}, ErrCanceled
		}
		waited := time.Since(waitStart)
		m.met.queueDepth.Add(-1)
		m.met.pointsInflight.Add(1)
		m.met.slotWait.Observe(waited.Seconds())
		m.met.rec.Record(i, obs.KindSlotWait, -1, -1, int64(waited), int64(weight))
		ptStart := time.Now()
		pr, err := m.runPoint(job.Spec, i, m.met.sim)
		ptWall := time.Since(ptStart)
		m.sem.release(weight)
		m.met.pointsInflight.Add(-1)
		if err != nil {
			return PointResult{}, err
		}
		m.met.pointsDone.Add(1)
		m.met.pointWall.Observe(ptWall.Seconds())
		m.met.rec.Record(i, obs.KindPoint, -1, -1, int64(ptWall), 0)
		job.recordPoint(PointEvent{Index: i, Point: pr})
		return pr, nil
	})
	if err == nil {
		var data []byte
		if data, err = MarshalResult(job.Spec, points); err == nil {
			if cerr := m.cache.Put(job.Hash, data); cerr != nil {
				// A failed persist degrades the cache, not the job.
				m.met.cacheWriteErrs.Add(1)
			}
			m.finish(job, StatusDone, data, nil)
			m.met.jobsCompleted.Add(1)
		}
	}
	if err != nil {
		if errors.Is(err, ErrCanceled) {
			m.finish(job, StatusCanceled, nil, err)
			m.met.jobsCanceled.Add(1)
		} else {
			m.finish(job, StatusFailed, nil, err)
			m.met.jobsFailed.Add(1)
		}
	}
	m.met.jobsInflight.Add(-1)
}

// recordPoint appends a progress event and fans it out to subscribers.
func (j *Job) recordPoint(ev PointEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	j.completed++
	for _, ch := range j.subs {
		ch <- ev // buffered to NPoints, never blocks
	}
}

// finish moves a job to a terminal state and releases waiters/subscribers.
func (m *Manager) finish(job *Job, st Status, result []byte, err error) {
	job.mu.Lock()
	defer job.mu.Unlock()
	job.status = st
	job.result = result
	job.err = err
	job.finished = time.Now()
	wall := job.finished.Sub(job.started)
	m.met.jobWall.Observe(wall.Seconds())
	m.met.rec.Record(0, obs.KindJobDone, -1, -1, statusCode(st), int64(wall))
	for _, ch := range job.subs {
		close(ch)
	}
	job.subs = nil
	close(job.done)
}

// statusCode maps a terminal Status onto the flight recorder's job codes.
func statusCode(st Status) int64 {
	switch st {
	case StatusFailed:
		return obs.JobFailed
	case StatusCanceled:
		return obs.JobCanceled
	}
	return obs.JobDone
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, len(m.order))
	for i, id := range m.order {
		out[i] = m.jobs[id]
	}
	return out
}

// Cancel requests cancellation of a running job: points not yet claimed (or
// still waiting for a pool slot) abort with ErrCanceled; in-flight points
// finish, since a running engine cannot be interrupted — the same semantics
// as sweep's cancel-on-first-error. Reports whether the job exists.
func (m *Manager) Cancel(id string) bool {
	job, ok := m.Job(id)
	if !ok {
		return false
	}
	job.mu.Lock()
	cancel := job.cancel
	job.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// Wait blocks until the job reaches a terminal state.
func (m *Manager) Wait(job *Job) { <-job.done }

// Result returns a cached result document by hash.
func (m *Manager) Result(hash string) ([]byte, bool) { return m.cache.Peek(hash) }

// MetricsText renders the metrics registry in Prometheus text exposition
// (the default /metricz body).
func (m *Manager) MetricsText() string { return m.met.reg.PrometheusText() }

// MetricsJSON renders the metrics registry as JSON (the legacy
// /metricz?format=json view).
func (m *Manager) MetricsJSON() string { return m.met.reg.JSONText() }

// Counter exposes a metrics counter for tests and the load generator's
// cache-hit assertions (via /metricz in the HTTP path). Names are the
// Prometheus family names, e.g. "clmpi_serve_cache_hits_total".
func (m *Manager) Counter(name string) float64 { return m.met.reg.CounterValue(name) }

// Recorder exposes the daemon's flight recorder (for /debug/flightz and the
// SIGQUIT handler).
func (m *Manager) Recorder() *obs.Recorder { return m.met.rec }

// FlightDump writes the flight recorder's dump — notes and every resident
// event.
func (m *Manager) FlightDump(w io.Writer) error { return m.met.rec.WriteDump(w) }

// ObsReport writes the aggregated per-shard host-time attribution across
// every partitioned engine this daemon has run (the clmpi-serve -obs-report
// shutdown output).
func (m *Manager) ObsReport(w io.Writer) error { return m.met.sim.Report(w) }

// WriteTrace renders the job table as Chrome trace_event JSON: one span
// per retained job on the "serve" layer, whose lane is the job's status,
// in wall time since manager start (a running job extends to now). The bus
// is built here, at request time; the daemon records no trace events.
func (m *Manager) WriteTrace(w io.Writer) error {
	now := time.Now()
	b := trace.NewBus()
	for _, job := range m.Jobs() {
		job.mu.Lock()
		st, from, to := job.status, job.started, job.finished
		job.mu.Unlock()
		if st == StatusRunning {
			to = now
		}
		b.Span("serve", "jobs."+string(st), job.ID,
			sim.Time(from.Sub(m.start)), sim.Time(to.Sub(m.start)),
			trace.A("hash", job.Hash[:12]),
			trace.AInt("points", int64(job.NPoints)),
			trace.A("cached", fmt.Sprintf("%t", job.Cached)))
	}
	return b.WriteChrome(w)
}

// JobStatus is the wire form of a job snapshot.
type JobStatus struct {
	ID        string          `json:"id"`
	Hash      string          `json:"hash"`
	Status    Status          `json:"status"`
	Cached    bool            `json:"cached"`
	Points    int             `json:"points"`
	Completed int             `json:"completed"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// StatusOf snapshots a job. withResult embeds the result document on done
// jobs (it is small — one row per grid point).
func (m *Manager) StatusOf(job *Job, withResult bool) JobStatus {
	job.mu.Lock()
	defer job.mu.Unlock()
	st := JobStatus{
		ID:        job.ID,
		Hash:      job.Hash,
		Status:    job.status,
		Cached:    job.Cached,
		Points:    job.NPoints,
		Completed: job.completed,
	}
	if job.err != nil {
		st.Error = job.err.Error()
	}
	if withResult && job.status == StatusDone {
		st.Result = json.RawMessage(job.result)
	}
	return st
}

// ResultBytes returns a done job's result document.
func (j *Job) ResultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		return nil, false
	}
	return j.result, true
}

// Err returns a failed/canceled job's error.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Subscribe returns the progress events recorded so far and, for a live job,
// a channel delivering the rest; the channel is closed when the job
// finishes. For a finished job the channel is nil. The channel is buffered
// to the grid size, so a slow reader cannot stall the pool.
func (j *Job) Subscribe() ([]PointEvent, <-chan PointEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	past := append([]PointEvent(nil), j.events...)
	switch j.status {
	case StatusRunning:
		ch := make(chan PointEvent, j.NPoints+1)
		j.subs = append(j.subs, ch)
		return past, ch
	default:
		return past, nil
	}
}

// StatusNow reports the job's current lifecycle state.
func (j *Job) StatusNow() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

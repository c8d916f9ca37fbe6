package serve

import (
	"repro/internal/obs"
)

// serveMetrics is the daemon's host-time observability bundle: an atomic
// obs.Registry (every hot-path update is a single atomic, so a /metricz
// scrape never contends with job execution), a flight recorder for the
// post-mortem surfaces (/debug/flightz, SIGQUIT), and the PDES aggregator
// that partitioned matchscale points report their stall attribution into.
// Virtual-time metrics remain the business of per-job results; nothing here
// feeds a cached document.
type serveMetrics struct {
	reg *obs.Registry
	rec *obs.Recorder
	sim *obs.Sim

	submitted      *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheWriteErrs *obs.Counter
	pointsDone     *obs.Counter
	jobsCompleted  *obs.Counter
	jobsFailed     *obs.Counter
	jobsCanceled   *obs.Counter

	jobWall   *obs.Histogram // submit → terminal, seconds
	slotWait  *obs.Histogram // queue wait for pool slots, seconds
	pointWall *obs.Histogram // one grid point's simulation, seconds

	queueDepth     *obs.Gauge
	pointsInflight *obs.Gauge
	jobsInflight   *obs.Gauge
	jobsRetained   *obs.Gauge
}

// newServeMetrics registers every serve family. cacheLen feeds the
// scrape-time cache-entries gauge; workers sizes the flight recorder's ring
// set (one ring per pool slot keeps concurrent writers from sharing a head
// counter more than they must).
func newServeMetrics(workers int, cacheLen func() int) *serveMetrics {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(workers, 0)
	m := &serveMetrics{reg: reg, rec: rec, sim: obs.NewSim(reg, rec)}
	m.submitted = reg.Counter("clmpi_serve_jobs_submitted_total",
		"Jobs accepted by Submit (cache hits included).")
	m.cacheHits = reg.Counter("clmpi_serve_cache_hits_total",
		"Submissions answered from the content-addressed result cache without simulating.")
	m.cacheMisses = reg.Counter("clmpi_serve_cache_misses_total",
		"Submissions whose content address was not cached.")
	m.cacheWriteErrs = reg.Counter("clmpi_serve_cache_write_errors_total",
		"Failed result-cache persists (the job itself still succeeds).")
	m.pointsDone = reg.Counter("clmpi_serve_points_completed_total",
		"Grid points simulated to completion.")
	m.jobsCompleted = reg.Counter("clmpi_serve_jobs_completed_total",
		"Jobs finished in status done.")
	m.jobsFailed = reg.Counter("clmpi_serve_jobs_failed_total",
		"Jobs finished in status failed.")
	m.jobsCanceled = reg.Counter("clmpi_serve_jobs_canceled_total",
		"Jobs finished in status canceled.")
	m.jobWall = reg.Histogram("clmpi_serve_job_wall_seconds",
		"Wall time from submission to a terminal state.", obs.DefaultLatencyBounds)
	m.slotWait = reg.Histogram("clmpi_serve_slot_wait_seconds",
		"Wall time a point waited for its worker-pool slots.", obs.DefaultLatencyBounds)
	m.pointWall = reg.Histogram("clmpi_serve_point_seconds",
		"Wall time one grid point spent simulating.", obs.DefaultLatencyBounds)
	m.queueDepth = reg.Gauge("clmpi_serve_queue_depth",
		"Points currently waiting for a worker-pool slot.")
	m.pointsInflight = reg.Gauge("clmpi_serve_points_inflight",
		"Points currently simulating.")
	m.jobsInflight = reg.Gauge("clmpi_serve_jobs_inflight",
		"Jobs currently in status running.")
	m.jobsRetained = reg.Gauge("clmpi_serve_jobs_retained",
		"Jobs held in the job table: every running job plus the newest terminal ones, up to the retention cap.")
	reg.GaugeFunc("clmpi_serve_cache_hit_ratio",
		"Cache hits over all cache lookups, computed at scrape time.",
		func() float64 {
			hits := float64(m.cacheHits.Value())
			total := hits + float64(m.cacheMisses.Value())
			if total == 0 {
				return 0
			}
			return hits / total
		})
	reg.GaugeFunc("clmpi_serve_cache_entries",
		"Entries resident in the in-memory result cache.",
		func() float64 { return float64(cacheLen()) })
	return m
}

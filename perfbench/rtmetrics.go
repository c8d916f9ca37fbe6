package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Go runtime counters read around measured passes, by runtime/metrics name.
const (
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mSchedLat   = "/sched/latencies:seconds"
	mGoroutines = "/sched/goroutines:goroutines"
	mStackBytes = "/memory/classes/heap/stacks:bytes"
)

var snapNames = []string{mGCCPU, mGCCycles, mAllocBytes, mAllocObjs, mSchedLat}

// rtSnap is one reading of the runtime counters plus the process's CPU
// time and the wall clock, so that two snapshots bracket a pass.
type rtSnap struct {
	wall time.Time
	cpu  time.Duration // process user+system time, from getrusage
	vals map[string]metrics.Value
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(snapNames))
	for i, n := range snapNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s := rtSnap{wall: time.Now(), cpu: processCPU(), vals: make(map[string]metrics.Value, len(samples))}
	for _, smp := range samples {
		s.vals[smp.Name] = smp.Value
	}
	return s
}

// processCPU is the process's cumulative user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MB (getrusage
// reports KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// scalar reads a counter or gauge as a float64 whatever its kind (0 when
// the metric is absent or a histogram).
func scalar(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// delta is b−a of a scalar counter.
func delta(a, b rtSnap, name string) float64 { return scalar(b.vals[name]) - scalar(a.vals[name]) }

// histDelta is the bucket-wise difference b−a of a cumulative histogram
// with fixed buckets, as runtime/metrics produces.
func histDelta(a, b *metrics.Float64Histogram) *metrics.Float64Histogram {
	if b == nil {
		return nil
	}
	out := &metrics.Float64Histogram{Buckets: b.Buckets, Counts: append([]uint64(nil), b.Counts...)}
	if a != nil && len(a.Counts) == len(b.Counts) {
		for i, c := range a.Counts {
			out.Counts[i] -= c
		}
	}
	return out
}

// addHist accumulates src into dst (same bucket layout) and returns dst.
func addHist(dst, src *metrics.Float64Histogram) *metrics.Float64Histogram {
	if src == nil {
		return dst
	}
	if dst == nil {
		return &metrics.Float64Histogram{Buckets: src.Buckets, Counts: append([]uint64(nil), src.Counts...)}
	}
	for i, c := range src.Counts {
		dst.Counts[i] += c
	}
	return dst
}

// histQuantile returns the upper edge of the bucket holding the q-quantile
// of h — the lower edge when that bucket is unbounded above — and the
// sample count. It returns (0, 0) for an empty histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) (float64, uint64) {
	if h == nil {
		return 0, 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	if want == 0 {
		want = 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= want {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi, total
			}
			return h.Buckets[i], total
		}
	}
	return h.Buckets[len(h.Buckets)-1], total
}

// schedHist reads the scheduling-latency histogram of a snapshot.
func schedHist(s rtSnap) *metrics.Float64Histogram {
	v, ok := s.vals[mSchedLat]
	if !ok || v.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return v.Float64Histogram()
}

// peakSampler polls the live goroutine count and goroutine-stack memory
// while a traced pass runs and keeps their maxima.
type peakSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	goroutines float64
	stackBytes float64
}

const samplePeriod = 2 * time.Millisecond

func startPeakSampler() *peakSampler {
	ps := &peakSampler{stop: make(chan struct{})}
	ps.wg.Add(1)
	go func() {
		defer ps.wg.Done()
		samples := []metrics.Sample{{Name: mGoroutines}, {Name: mStackBytes}}
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			ps.goroutines = math.Max(ps.goroutines, scalar(samples[0].Value))
			ps.stackBytes = math.Max(ps.stackBytes, scalar(samples[1].Value))
			select {
			case <-ps.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return ps
}

// finish stops the sampler and returns once it has exited; the maxima are
// safe to read afterwards.
func (ps *peakSampler) finish() {
	close(ps.stop)
	ps.wg.Wait()
}

// rtTotals accumulates the runtime counters over the traced passes.
type rtTotals struct {
	passes              int
	wall, cpu           time.Duration
	gcCPU, gcCycles     float64
	allocObjs           float64
	sched               *metrics.Float64Histogram
	goroutines, stackMB float64
}

// add accounts one traced pass bracketed by snapshots a and b, with the
// maxima its sampler saw.
func (t *rtTotals) add(a, b rtSnap, ps *peakSampler) {
	t.passes++
	t.wall += b.wall.Sub(a.wall)
	t.cpu += b.cpu - a.cpu
	t.gcCPU += delta(a, b, mGCCPU)
	t.gcCycles += delta(a, b, mGCCycles)
	t.allocObjs += delta(a, b, mAllocObjs)
	t.sched = addHist(t.sched, histDelta(schedHist(a), schedHist(b)))
	t.goroutines = math.Max(t.goroutines, ps.goroutines)
	t.stackMB = math.Max(t.stackMB, ps.stackBytes/1e6)
}

// metrics reports the per-pass means (GC time, cycles, allocations), the
// shares and the maxima as per-layer metrics.
func (t *rtTotals) metrics(m map[string]float64) {
	if t.passes == 0 {
		return
	}
	n := float64(t.passes)
	m["gc.cpu_s"] = t.gcCPU / n
	m["gc.cycles"] = t.gcCycles / n
	m["gc.allocs_m"] = t.allocObjs / n / 1e6
	if t.cpu > 0 {
		m["gc.share"] = math.Min(1, t.gcCPU/t.cpu.Seconds())
	}
	if t.wall > 0 {
		m["rt.cpu_util"] = t.cpu.Seconds() / (t.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
	m["rt.goroutines_peak"] = t.goroutines
	m["rt.stack_mb"] = t.stackMB
	p50, _ := histQuantile(t.sched, 0.5)
	p99, _ := histQuantile(t.sched, 0.99)
	m["rt.sched_latency_p50_us"] = p50 * 1e6
	m["rt.sched_latency_p99_us"] = p99 * 1e6
}

package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a host-time metrics registry: named families of atomic
// counters, gauges, and fixed-bucket histograms, rendered as Prometheus
// text exposition (and a JSON mirror). It is updated lock-free from many
// goroutines, so a /metricz scrape never contends with the hot path it is
// observing.
//
// Families and their children are created once, at setup, under a lock;
// updates through the returned handles are pure atomics. Exposition is
// deterministic: families sort by name, children by label values.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric family: a help string, a label schema, and the
// children keyed by their label values.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string
	scale  float64   // exposition multiplier for int-valued counters/gauges
	bounds []float64 // histogram bucket upper bounds, ascending
	fn     func() float64

	mu       sync.Mutex
	children map[string]*child
}

type child struct {
	values []string // label values, parallel to family.labels
	c      atomic.Int64
	g      atomic.Uint64 // float64 bits
	h      *Histogram
}

// Counter is a monotonically increasing metric handle. Add is one atomic.
type Counter struct {
	ch   *child
	fam  *family
	vals []string
}

// Add increments the counter by n (native units; the family's scale applies
// only at exposition). A nil handle is a no-op.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.ch.c.Add(n)
}

// Value reads the counter in native units.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.ch.c.Load()
}

// Gauge is a set-or-adjust metric handle storing a float64.
type Gauge struct{ ch *child }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.ch.g.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta with a CAS loop (lock-free; deltas from
// racing goroutines all land).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.ch.g.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.ch.g.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.ch.g.Load())
}

// CounterVec is a labeled counter family; resolve children once at setup
// with With, then Add on the handles.
type CounterVec struct{ fam *family }

// With returns the child for the given label values, creating it on first
// use. Takes the family lock — resolve handles at setup, not per update.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	ch := v.fam.child(values)
	return &Counter{ch: ch, fam: v.fam, vals: ch.values}
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{ch: v.fam.child(values)}
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.children[key]
	if !ok {
		ch = &child{values: append([]string(nil), values...)}
		if f.typ == typeHistogram {
			ch.h = newHistogram(f.bounds)
		}
		f.children[key] = ch
	}
	return ch
}

// Option tweaks a family at creation.
type Option func(*family)

// Scale sets the exposition multiplier for an integer-valued counter or
// gauge family: a counter fed nanoseconds with Scale(1e-9) exposes seconds.
func Scale(s float64) Option { return func(f *family) { f.scale = s } }

func (r *Registry) family(name, help string, typ metricType, labels []string, opts ...Option) *family {
	validateName(name)
	for _, l := range labels {
		validateName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		scale:    1,
		children: make(map[string]*child),
	}
	for _, o := range opts {
		o(f)
	}
	r.fams[name] = f
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string, opts ...Option) *Counter {
	f := r.family(name, help, typeCounter, nil, opts...)
	ch := f.child(nil)
	return &Counter{ch: ch, fam: f}
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels []string, opts ...Option) *CounterVec {
	return &CounterVec{fam: r.family(name, help, typeCounter, labels, opts...)}
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{ch: r.family(name, help, typeGauge, nil).child(nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels []string) *GaugeVec {
	return &GaugeVec{fam: r.family(name, help, typeGauge, labels)}
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// for derived quantities (hit ratios, occupancy) that would otherwise need
// recomputation on every update.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeGauge, nil)
	f.fn = fn
}

// Histogram registers an unlabeled fixed-bucket histogram. Bounds are the
// ascending bucket upper bounds; observations above the last bound land in
// the implicit +Inf bucket.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, typeHistogram, nil, func(f *family) { f.bounds = append([]float64(nil), bounds...) })
	return f.child(nil).h
}

// CounterValue reads a counter family's total (across children) in native
// units times the family scale. Missing families read 0 — convenient for
// tests and the load generator.
func (r *Registry) CounterValue(name string) float64 {
	r.mu.Lock()
	f, ok := r.fams[name]
	r.mu.Unlock()
	if !ok || f.typ != typeCounter {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var total int64
	for _, ch := range f.children {
		total += ch.c.Load()
	}
	return float64(total) * f.scale
}

// GaugeValue reads an unlabeled gauge (evaluating a GaugeFunc).
func (r *Registry) GaugeValue(name string) float64 {
	r.mu.Lock()
	f, ok := r.fams[name]
	r.mu.Unlock()
	if !ok || f.typ != typeGauge {
		return 0
	}
	if f.fn != nil {
		return f.fn()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ch := range f.children {
		return math.Float64frombits(ch.g.Load())
	}
	return 0
}

// validateName enforces the Prometheus metric/label name charset at
// registration, where a panic is a programming error caught by any test.
func validateName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric/label name %q", name))
		}
	}
}

// DefaultLatencyBounds is the shared fixed bucket layout for host-latency
// histograms, in seconds: 100µs to 60s, roughly 2.5x per step. Fixed and
// shared so histograms merge exactly and dashboards line up.
var DefaultLatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 60,
}

// Histogram is a fixed-bucket concurrent histogram: per-bucket atomic
// counts, an atomically merged sum, and exact min/max. It is safe for
// concurrent Observe and is read consistently enough for monitoring while
// being written. The virtual-time metrics report (trace.Metrics) uses it
// too, over power-of-two bounds.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-merged
	minBits atomic.Uint64 // float64 bits; +Inf until the first observation
	maxBits atomic.Uint64 // float64 bits; -Inf until the first observation
	hasObs  atomic.Bool
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must ascend")
		}
	}
	h := &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1), // +Inf overflow
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// NewHistogram creates a standalone (unregistered) histogram — for tools
// like the load generator that want the fixed-bucket quantile machinery
// without a registry.
func NewHistogram(bounds []float64) *Histogram { return newHistogram(bounds) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	casExtreme(&h.minBits, v, func(cur float64) bool { return v < cur })
	casExtreme(&h.maxBits, v, func(cur float64) bool { return v > cur })
	h.hasObs.Store(true)
}

// casExtreme folds v into an atomic float slot when better(current) says
// so. The slots start at the infinities, so the first observation always
// wins, whatever its value — zero included.
func casExtreme(slot *atomic.Uint64, v float64, better func(float64) bool) {
	for {
		old := slot.Load()
		if !better(math.Float64frombits(old)) {
			return
		}
		if slot.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max reports the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if !h.hasObs.Load() {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Min reports the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if !h.hasObs.Load() {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Quantile reports an upper bound for the q-quantile from the bucket
// counts: the bound of the bucket holding the q-th observation, clamped to
// the observed maximum (the overflow bucket has no finite bound, and the top
// occupied bucket's bound usually overshoots the true maximum). A q past 1
// clamps to 1.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i < len(h.bounds) && h.bounds[i] < h.Max() {
				return h.bounds[i]
			}
			return h.Max()
		}
	}
	return h.Max()
}

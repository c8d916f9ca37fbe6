package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sendPosted records a send-posted instant the way the MPI adapter does.
func sendPosted(b *Bus, bytes int64, proto string) {
	b.Instant(LayerMPI, "rank0->rank1", "send posted", ms(0),
		AInt("tag", 1), AInt("bytes", bytes), A("proto", proto))
}

// TestMetricsCountersAndGauges: each event kind feeds its counters, and
// names that were never recorded read as missing.
func TestMetricsCountersAndGauges(t *testing.T) {
	b := NewBus()
	b.Span(LayerCL, "q0", "kernel k", ms(0), ms(1))
	b.Span(LayerCL, "q0", "clmpi.send x", ms(1), ms(2))
	b.Span(LayerCL, "q0", "marker", ms(2), ms(2))
	b.Instant(LayerCL, "q0", "ev user", ms(2)) // instants are not commands
	b.Span(LayerXfer, "p0", "wire.send", ms(0), ms(3), AInt("bytes", 4096))
	b.Span(LayerXfer, "p0", "wire.send", ms(3), ms(4), AInt("bytes", 4096))
	b.Span(LayerCluster, "node0.tx", "xfer", ms(0), ms(2), AInt("bytes", 100))
	b.Span(LayerCluster, "node0.tx", "busy", ms(2), ms(3))
	sendPosted(b, 64, "eager")
	sendPosted(b, 1<<20, "rendezvous")
	b.Instant(LayerMPI, "rank1.recv", "irecv posted", ms(0), AInt("src", 0))
	b.plans = append(b.plans, plan{strategy: "pinned", bytes: 8})

	m := b.Metrics()
	for name, want := range map[string]float64{
		"cl.commands":                  3,
		"cl.cmd.K":                     1,
		"cl.cmd.S":                     1,
		"cl.cmd.o":                     1, // the invisible marker folds into 'o'
		"xfer.stage.wire.send.spans":   2,
		"xfer.stage.wire.send.bytes":   8192,
		"xfer.stage.wire.send.busy_ns": 4e6,
		"link.node0.tx.bytes":          100,
		"link.node0.tx.busy_ns":        3e6,
		"mpi.eager":                    1,
		"mpi.rendezvous":               1,
		"mpi.bytes":                    64 + 1<<20,
		"mpi.recvs":                    1,
		"clmpi.strategy.pinned":        1,
	} {
		if v, ok := m.Counter(name); !ok || v != want {
			t.Errorf("counter %s = %v, %v; want %v", name, v, ok, want)
		}
	}
	if _, ok := m.Counter("missing"); ok {
		t.Error("missing counter reported present")
	}
	if _, ok := m.Gauge("missing"); ok {
		t.Error("missing gauge reported present")
	}
	if m.Hist("missing") != nil {
		t.Error("missing hist non-nil")
	}
}

// TestMetricsGauges: utilization over the traced horizon, the overlap
// ratio, and per-iteration overlap; an empty bus derives no gauges.
func TestMetricsGauges(t *testing.T) {
	b := NewBus()
	b.Span(LayerCluster, "node0.tx", "xfer", ms(0), ms(5))
	b.Span(LayerCL, "q0", "kernel k", ms(0), ms(10))
	b.Instant(LayerApp, "rank0", "iter 0", ms(0))
	m := b.Metrics()
	if v, ok := m.Gauge("link.node0.tx.util"); !ok || v != 0.5 {
		t.Fatalf("link util = %v, %v", v, ok)
	}
	if v, ok := m.Gauge("queue.q0.util"); !ok || v != 1 {
		t.Fatalf("queue util = %v, %v", v, ok)
	}
	if _, ok := m.Gauge("overlap.ratio"); !ok {
		t.Fatal("overlap.ratio gauge missing")
	}
	if _, ok := m.Gauge("overlap.iter.000"); !ok {
		t.Fatal("overlap.iter.000 gauge missing")
	}
	if got := NewBus().Metrics().Format(); got != "" {
		t.Fatalf("empty bus metrics = %q, want none", got)
	}
}

// TestHistogram: the power-of-two buckets with the clamp-to-max quantile,
// fed from send-posted instants.
func TestHistogram(t *testing.T) {
	b := NewBus()
	for _, v := range []int64{1, 2, 4, 1024} {
		sendPosted(b, v, "eager")
	}
	h := b.Metrics().Hist("mpi.msg_bytes")
	if h == nil || h.Count() != 4 {
		t.Fatalf("hist = %+v", h)
	}
	if h.Min() != 1 || h.Max() != 1024 || h.Sum() != 1031 {
		t.Fatalf("min/max/sum = %v/%v/%v", h.Min(), h.Max(), h.Sum())
	}
	// p50 of {1,2,4,1024}: 2nd observation lands in the bucket bounded by 2.
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Quantile(1); got != 1024 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	b := NewBus()
	b.Instant(LayerMPI, "rank1.recv", "irecv posted", ms(0))
	if b.Metrics().Hist("mpi.msg_bytes") != nil {
		t.Fatal("histogram exists with no observation")
	}
	sendPosted(b, 3e12, "rendezvous") // beyond 2^40: overflow bucket
	if got := b.Metrics().Hist("mpi.msg_bytes").Quantile(0.5); got != 3e12 {
		t.Fatalf("overflow p50 = %v, want the max", got)
	}
}

// TestHistogramQuantileClamp: the quantile clamping rules over the
// power-of-two layout — the reported bound never exceeds the observed
// maximum, and observations past the last bound (2^40) report the maximum
// rather than a fictitious next power of two.
func TestHistogramQuantileClamp(t *testing.T) {
	hist := func(vals ...int64) *obs.Histogram {
		b := NewBus()
		for _, v := range vals {
			sendPosted(b, v, "eager")
		}
		return b.Metrics().Hist("mpi.msg_bytes")
	}
	// Top-bucket clamp: 3 lands in the bucket bounded by 4, but the
	// quantile must not exceed the observed max.
	if got := hist(3).Quantile(0.5); got != 3 {
		t.Fatalf("single-value p50 = %v, want max 3", got)
	}
	// Mid-bucket bound stays a bound: p50 of {3, 1000} is the bucket bound
	// 4 (an upper bound for the true median 3), not the max.
	if got := hist(3, 1000).Quantile(0.5); got != 4 {
		t.Fatalf("p50 = %v, want bucket bound 4", got)
	}
	const big = int64(1) << 50
	for _, q := range []float64{0.01, 0.5, 0.99, 1, 2} {
		if got := hist(big).Quantile(q); got != float64(big) {
			t.Fatalf("overflow Quantile(%v) = %v, want 2^50", q, got)
		}
	}
	// Mixed tracked + overflow: the high quantile crosses into overflow.
	mixed := hist(big, 2)
	if got := mixed.Quantile(0.5); got != 2 {
		t.Fatalf("mixed p50 = %v, want 2", got)
	}
	if got := mixed.Quantile(1); got != float64(big) {
		t.Fatalf("mixed p100 = %v, want 2^50", got)
	}
}

// TestMetricsMalformedBytes: a missing or non-integer bytes arg counts as
// 0 rather than failing the derivation.
func TestMetricsMalformedBytes(t *testing.T) {
	b := NewBus()
	b.Instant(LayerMPI, "rank0->rank1", "send posted", ms(0), A("bytes", "lots"), A("proto", "eager"))
	b.Span(LayerCluster, "node0.tx", "xfer", ms(0), ms(1), A("bytes", "1.5"))
	b.Span(LayerXfer, "p0", "setup", ms(0), ms(1))
	m := b.Metrics()
	for _, name := range []string{"mpi.bytes", "link.node0.tx.bytes", "xfer.stage.setup.bytes"} {
		if v, ok := m.Counter(name); !ok || v != 0 {
			t.Errorf("counter %s = %v, %v; want 0", name, v, ok)
		}
	}
	if v, _ := m.Counter("mpi.eager"); v != 1 {
		t.Errorf("mpi.eager = %v, want 1", v)
	}
	if h := m.Hist("mpi.msg_bytes"); h == nil || h.Count() != 1 || h.Max() != 0 {
		t.Errorf("mpi.msg_bytes = %+v, want one 0 observation", h)
	}
}

func TestEachGauge(t *testing.T) {
	b := NewBus()
	b.Span(LayerCluster, "node1.tx", "xfer", ms(0), ms(5))
	b.Span(LayerCluster, "node0.tx", "xfer", ms(0), ms(2))
	b.Span(LayerCL, "q", "kernel k", ms(0), ms(10))
	var names []string
	b.Metrics().EachGauge(func(name string, v float64) { names = append(names, name) })
	want := "link.node0.tx.util,link.node1.tx.util,overlap.ratio,queue.q.util"
	if strings.Join(names, ",") != want {
		t.Fatalf("EachGauge order = %v, want %s", names, want)
	}
}

func TestMetricsFormatDeterministic(t *testing.T) {
	build := func() *Bus {
		b := NewBus()
		sendPosted(b, 65536, "eager")
		sendPosted(b, 131072, "eager")
		b.Span(LayerCL, "q", "kernel k", ms(0), ms(3))
		b.Span(LayerMPI, "rank0->rank1", "msg", ms(1), ms(2))
		return b
	}
	a, b := build().Metrics().Format(), build().Metrics().Format()
	if a != b {
		t.Fatalf("Format not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"counter cl.commands 1\n",
		"counter mpi.eager 2\n",
		"gauge   overlap.ratio 1\n",
		"gauge   queue.q.util 1\n",
		"hist    mpi.msg_bytes count=2 sum=196608 mean=98304 p50=65536 max=131072\n",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("Format missing %q:\n%s", want, a)
		}
	}
	// Sorted: counters before gauges before hists, each alphabetical.
	if strings.Index(a, "cl.commands") > strings.Index(a, "mpi.eager") ||
		strings.Index(a, "mpi.eager") > strings.Index(a, "overlap.ratio") ||
		strings.Index(a, "overlap.ratio") > strings.Index(a, "queue.q.util") ||
		strings.Index(a, "queue.q.util") > strings.Index(a, "mpi.msg_bytes") {
		t.Fatalf("Format not sorted:\n%s", a)
	}
}

// TestMetricsViewOfTheEvents: a merged bus and a bus reloaded from the
// native format report the metrics their events imply, with no merge rule
// and no second store; plan resolutions concatenate across a merge.
func TestMetricsViewOfTheEvents(t *testing.T) {
	p0, p1 := NewBus(), NewBus()
	sendPosted(p0, 64, "eager")
	p0.Span(LayerCluster, "node0.tx", "xfer", ms(0), ms(2), AInt("bytes", 64))
	p0.plans = append(p0.plans, plan{strategy: "pinned", bytes: 64})
	sendPosted(p1, 128, "eager")
	p1.Span(LayerCluster, "node0.tx", "xfer", ms(2), ms(4), AInt("bytes", 128))
	p1.plans = append(p1.plans, plan{strategy: "mapped", bytes: 128})
	m := MergeBuses(p0, p1).Metrics()
	for name, want := range map[string]float64{
		"mpi.eager": 2, "mpi.bytes": 192, "link.node0.tx.bytes": 192,
		"clmpi.strategy.pinned": 1, "clmpi.strategy.mapped": 1,
	} {
		if v, _ := m.Counter(name); v != want {
			t.Errorf("merged %s = %v, want %v", name, v, want)
		}
	}
	if v, _ := m.Gauge("link.node0.tx.util"); v != 1 {
		t.Errorf("merged link util = %v, want 1", v)
	}

	var buf bytes.Buffer
	if err := p0.WriteNative(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadNative(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p0.plans = nil // plans are not events and not part of the format
	if got, want := loaded.Metrics().Format(), p0.Metrics().Format(); got != want {
		t.Fatalf("reloaded metrics differ:\n%s\nvs\n%s", got, want)
	}
}

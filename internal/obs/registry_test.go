package obs

import (
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndScale(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("clmpi_test_ns_total", "nanoseconds fed, seconds exposed.", Scale(1e-9))
	c.Add(2_500_000_000)
	if got := c.Value(); got != 2_500_000_000 {
		t.Fatalf("Value() = %d (native units)", got)
	}
	if got := reg.CounterValue("clmpi_test_ns_total"); got != 2.5 {
		t.Fatalf("CounterValue = %v, want 2.5 (scaled)", got)
	}
	if !strings.Contains(reg.PrometheusText(), "clmpi_test_ns_total 2.5\n") {
		t.Fatalf("exposition missed the scaled sample:\n%s", reg.PrometheusText())
	}
}

func TestCounterVecChildren(t *testing.T) {
	reg := NewRegistry()
	v := reg.CounterVec("clmpi_test_stall_total", "per-pair.", []string{"shard", "upstream"})
	v.With("0", "1").Add(3)
	v.With("0", "1").Add(4) // same child
	v.With("1", "0").Add(5)
	if got := reg.CounterValue("clmpi_test_stall_total"); got != 12 {
		t.Fatalf("family total = %v, want 12", got)
	}
	text := reg.PrometheusText()
	for _, want := range []string{
		`clmpi_test_stall_total{shard="0",upstream="1"} 7`,
		`clmpi_test_stall_total{shard="1",upstream="0"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestGaugeAddConcurrent(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("clmpi_test_depth", "CAS adds from racing goroutines all land.")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
			g.Add(1)
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8 {
		t.Fatalf("gauge = %v, want 8", got)
	}
}

func TestGaugeFuncComputedAtScrape(t *testing.T) {
	reg := NewRegistry()
	hits := reg.Counter("clmpi_test_hits_total", "")
	miss := reg.Counter("clmpi_test_misses_total", "")
	reg.GaugeFunc("clmpi_test_hit_ratio", "derived", func() float64 {
		h, m := float64(hits.Value()), float64(miss.Value())
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	})
	hits.Add(1)
	miss.Add(3)
	if got := reg.GaugeValue("clmpi_test_hit_ratio"); got != 0.25 {
		t.Fatalf("GaugeValue = %v, want 0.25", got)
	}
	if !strings.Contains(reg.PrometheusText(), "clmpi_test_hit_ratio 0.25\n") {
		t.Fatalf("scrape-time gauge missing:\n%s", reg.PrometheusText())
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var gv *GaugeVec
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || cv.With("x") != nil || gv.With("x") != nil {
		t.Fatal("nil metric handles must read as zero")
	}
}

func TestValidateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad metric name must panic at registration")
		}
	}()
	NewRegistry().Counter("serve.cache.hits", "dots are not Prometheus")
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 3.5, 7} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0.5 || h.Max() != 7 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Sum(); got != 17.2 {
		t.Fatalf("sum = %v", got)
	}
	// Quantiles are bucket upper bounds: the 1st observation sits in le=1,
	// the 4th in le=4; the top bucket's bound (8) overshoots and must clamp
	// to the observed max.
	if got := h.Quantile(0.0); got != 1 {
		t.Fatalf("p0 = %v, want bucket bound 1", got)
	}
	if got := h.Quantile(0.50); got != 2 {
		t.Fatalf("p50 = %v, want bucket bound 2", got)
	}
	if got := h.Quantile(1.0); got != 7 {
		t.Fatalf("p100 = %v, want clamp to max 7", got)
	}
	// q past 1 clamps to 1 instead of ranking past the count.
	if got := h.Quantile(2); got != 7 {
		t.Fatalf("Quantile(2) = %v, want clamp to max 7", got)
	}
	// Overflow bucket: above every bound.
	h.Observe(100)
	if got := h.Quantile(1.0); got != 100 {
		t.Fatalf("p100 with overflow = %v, want 100", got)
	}
}

func TestHistogramEmptyReadsZero(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds)
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram must read as zero")
	}
}

// TestHistogramExtremesAfterZero: a zero observation is a real extreme.
// Min after Observe(0), Observe(5) is 0, and Max after Observe(0),
// Observe(-1) is 0.
func TestHistogramExtremesAfterZero(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds)
	h.Observe(0)
	h.Observe(5)
	if h.Min() != 0 || h.Max() != 5 {
		t.Fatalf("after 0, 5: min %v max %v, want 0 and 5", h.Min(), h.Max())
	}
	h = NewHistogram(DefaultLatencyBounds)
	h.Observe(0)
	h.Observe(-1)
	if h.Min() != -1 || h.Max() != 0 {
		t.Fatalf("after 0, -1: min %v max %v, want -1 and 0", h.Min(), h.Max())
	}
}

// sampleLine matches one Prometheus text-format sample.
var sampleLine = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)(\{[^}]*\})? (NaN|[+-]?Inf|[+-]?[0-9].*)$`)

// TestPrometheusExpositionParses renders a registry carrying every metric
// shape and validates the full text against the 0.0.4 format: HELP then TYPE
// then samples for each family, parseable sample lines, and cumulative
// histogram buckets ending in a +Inf bucket equal to _count.
func TestPrometheusExpositionParses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clmpi_test_a_total", "a counter.").Add(2)
	reg.CounterVec("clmpi_test_b_total", "labeled, with escapes.", []string{"shard"}).
		With(`x"y\z`).Add(1)
	reg.Gauge("clmpi_test_depth", "a gauge.").Set(-1.5)
	reg.GaugeFunc("clmpi_test_ratio", "derived.", func() float64 { return 0.5 })
	h := reg.Histogram("clmpi_test_wall_seconds", "a histogram.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}

	text := reg.PrometheusText()
	seenType := map[string]string{}
	var lastFamily string
	bucketCum := map[string]int64{}
	counts := map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name := strings.Fields(rest)[0]
			if _, dup := seenType[name]; dup {
				t.Fatalf("HELP for %s after its TYPE", name)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if f[0] <= lastFamily {
				t.Fatalf("families not sorted: %s after %s", f[0], lastFamily)
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown type %q", f[1])
			}
			seenType[f[0]] = f[1]
			lastFamily = f[0]
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := seenType[base]; !ok {
			t.Fatalf("sample %q before its family's TYPE line", line)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			v, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				t.Fatalf("bucket count %q: %v", line, err)
			}
			if v < bucketCum[base] {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			bucketCum[base] = v
			if !strings.Contains(m[2], `le="`) {
				t.Fatalf("bucket sample without le label: %q", line)
			}
		case strings.HasSuffix(name, "_count"):
			v, _ := strconv.ParseInt(m[3], 10, 64)
			counts[base] = v
		}
	}
	if got := seenType["clmpi_test_wall_seconds"]; got != "histogram" {
		t.Fatalf("histogram family typed %q", got)
	}
	if bucketCum["clmpi_test_wall_seconds"] != 4 || counts["clmpi_test_wall_seconds"] != 4 {
		t.Fatalf("+Inf bucket %d and _count %d must both equal 4",
			bucketCum["clmpi_test_wall_seconds"], counts["clmpi_test_wall_seconds"])
	}
	if !strings.Contains(text, `clmpi_test_b_total{shard="x\"y\\z"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", text)
	}
	if !strings.Contains(text, `clmpi_test_wall_seconds_bucket{le="+Inf"} 4`) {
		t.Fatalf("+Inf bucket missing:\n%s", text)
	}
}

// TestJSONView: the legacy ?format=json view must stay valid JSON with the
// histogram summary object.
func TestJSONView(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("clmpi_test_a_total", "").Add(3)
	reg.Histogram("clmpi_test_wall_seconds", "", []float64{1, 10}).Observe(0.5)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(reg.JSONText()), &doc); err != nil {
		t.Fatalf("JSON view invalid: %v\n%s", err, reg.JSONText())
	}
	if string(doc["clmpi_test_a_total"]) != "3" {
		t.Fatalf("counter entry = %s", doc["clmpi_test_a_total"])
	}
	var h struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	}
	if err := json.Unmarshal(doc["clmpi_test_wall_seconds"], &h); err != nil || h.Count != 1 || h.Sum != 0.5 {
		t.Fatalf("histogram entry = %s (err %v)", doc["clmpi_test_wall_seconds"], err)
	}
}

package trace

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// histBounds is the fixed exponential bucket layout shared by every
// histogram: powers of two from 1 up to 2^40 (1 TiB), which comfortably
// covers message sizes in bytes and counts alike. Values above the last
// bound land in the overflow bucket.
var histBounds = func() []float64 {
	b := make([]float64, 41)
	for i := range b {
		b[i] = float64(int64(1) << uint(i))
	}
	return b
}()

// Metrics is the virtual-time metrics report of one bus: named counters,
// gauges, and histograms derived from the recorded events by Bus.Metrics.
// Names are flat dotted strings ("link.node0.tx.bytes"); rendering is
// sorted by name, so two identical simulations format identically byte for
// byte.
type Metrics struct {
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*obs.Histogram
}

func (m *Metrics) add(name string, v float64) { m.counters[name] += v }

func (m *Metrics) set(name string, v float64) { m.gauges[name] = v }

func (m *Metrics) observe(name string, v float64) {
	h, ok := m.hists[name]
	if !ok {
		h = obs.NewHistogram(histBounds)
		m.hists[name] = h
	}
	h.Observe(v)
}

// Metrics derives the bus's metrics report in one pass over the recorded
// events:
//
//   - cl spans count as cl.commands and cl.cmd.<glyph>;
//   - xfer spans sum into xfer.stage.<stage>.{spans,bytes,busy_ns};
//   - cluster spans sum into link.<lane>.{bytes,busy_ns};
//   - "send posted" instants count as mpi.<proto>, mpi.bytes, and the
//     mpi.msg_bytes histogram; "irecv posted" instants as mpi.recvs;
//   - the fabric's plan resolutions count as clmpi.strategy.<strategy> and
//     the clmpi.plan_bytes histogram.
//
// Over a non-empty horizon it adds the gauges: per-link and per-queue
// utilization, the global overlap ratio, and the per-iteration overlap
// when application markers are present. A missing or non-integer "bytes"
// argument counts as 0. The report is a pure function of what the bus
// recorded, so a merged or reloaded bus reports the same metrics as the
// live one.
func (b *Bus) Metrics() *Metrics {
	m := &Metrics{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*obs.Histogram{},
	}
	for _, p := range b.plans {
		m.add("clmpi.strategy."+p.strategy, 1)
		m.observe("clmpi.plan_bytes", float64(p.bytes))
	}
	busy := map[string]time.Duration{} // utilization gauge name → busy time
	for i := range b.events {
		ev := &b.events[i]
		if ev.Ph == PhaseInstant {
			if ev.Layer != LayerMPI {
				continue
			}
			switch ev.Name {
			case "send posted":
				n := float64(argInt(ev, "bytes"))
				m.add("mpi."+argStr(ev, "proto"), 1)
				m.add("mpi.bytes", n)
				m.observe("mpi.msg_bytes", n)
			case "irecv posted":
				m.add("mpi.recvs", 1)
			}
			continue
		}
		d := ev.End.Sub(ev.Start)
		switch ev.Layer {
		case LayerCL:
			m.add("cl.commands", 1)
			m.add("cl.cmd."+string(glyphOrOther(ev.Name)), 1)
			busy["queue."+ev.Lane+".util"] += d
		case LayerXfer:
			pre := "xfer.stage." + ev.Name
			m.add(pre+".spans", 1)
			m.add(pre+".bytes", float64(argInt(ev, "bytes")))
			m.add(pre+".busy_ns", float64(d))
		case LayerCluster:
			pre := "link." + ev.Lane
			m.add(pre+".bytes", float64(argInt(ev, "bytes")))
			m.add(pre+".busy_ns", float64(d))
			busy[pre+".util"] += d
		}
	}
	tmax := b.End()
	if tmax == 0 {
		return m
	}
	horizon := tmax.Sub(0).Seconds()
	for name, d := range busy {
		m.set(name, d.Seconds()/horizon)
	}
	m.set("overlap.ratio", b.OverlapRatio())
	for k, r := range b.IterationOverlap() {
		m.set(fmt.Sprintf("overlap.iter.%03d", k), r)
	}
	return m
}

// argStr returns the value of the event's first argument named key, or "".
func argStr(ev *Event, key string) string {
	for _, a := range ev.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// argInt parses the event's argument named key; missing or malformed
// values read 0.
func argInt(ev *Event, key string) int64 {
	v, err := strconv.ParseInt(argStr(ev, key), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// Counter reports the named counter's value.
func (m *Metrics) Counter(name string) (float64, bool) {
	v, ok := m.counters[name]
	return v, ok
}

// Gauge reports the named gauge's value.
func (m *Metrics) Gauge(name string) (float64, bool) {
	v, ok := m.gauges[name]
	return v, ok
}

// Hist reports the named histogram, or nil.
func (m *Metrics) Hist(name string) *obs.Histogram { return m.hists[name] }

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EachGauge calls fn for every gauge in sorted name order.
func (m *Metrics) EachGauge(fn func(name string, v float64)) {
	for _, n := range sortedKeys(m.gauges) {
		fn(n, m.gauges[n])
	}
}

// fmtVal renders a metric value compactly and deterministically.
func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// Format renders the report as sorted text, one metric per line:
//
//	counter mpi.eager 12
//	gauge   link.node0.tx.util 0.42
//	hist    mpi.msg_bytes count=24 sum=1.8e+07 mean=750000 p50=1.04858e+06 max=1.048576e+06
func (m *Metrics) Format() string {
	var b strings.Builder
	for _, n := range sortedKeys(m.counters) {
		fmt.Fprintf(&b, "counter %s %s\n", n, fmtVal(m.counters[n]))
	}
	for _, n := range sortedKeys(m.gauges) {
		fmt.Fprintf(&b, "gauge   %s %s\n", n, fmtVal(m.gauges[n]))
	}
	for _, n := range sortedKeys(m.hists) {
		h := m.hists[n]
		fmt.Fprintf(&b, "hist    %s count=%d sum=%s mean=%s p50=%s max=%s\n",
			n, h.Count(), fmtVal(h.Sum()), fmtVal(h.Sum()/float64(h.Count())), fmtVal(h.Quantile(0.5)), fmtVal(h.Max()))
	}
	return b.String()
}

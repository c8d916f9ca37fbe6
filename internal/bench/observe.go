package bench

import (
	"fmt"
	"strings"

	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// TraceHimeno runs one fully instrumented Himeno configuration: command
// queues, the MPI protocol, and the cluster links all record onto the
// returned tracer's bus, whose Metrics report (link and queue utilization,
// overlap ratios, protocol counters) derives from those events. This is the
// data source behind the -trace/-metrics flags of cmd/clmpi-trace and
// cmd/clmpi-himeno and the observability benchmark metrics.
func TraceHimeno(sys cluster.System, impl himeno.Impl, size himeno.Size, nodes, iters int) (*trace.Tracer, *himeno.Result, error) {
	trc := trace.New()
	res, err := himeno.Run(himeno.Config{
		System: sys, Nodes: nodes, Size: size, Iters: iters,
		Impl: impl, Mode: himeno.OfficialInit, Trace: trc,
	})
	if err != nil {
		return nil, nil, err
	}
	return trc, res, nil
}

// TracePreset runs one of the named profiling presets — small, fully
// instrumented configurations whose traces are byte-deterministic, so the
// critical-path engine's report, folded stacks, and pprof profile can be
// golden-tested and diffed across commits. The presets are the two systems
// the paper reports on: "cichlid" (the GPU cluster of Table 1) and "ricc"
// (the RICC supercomputer), each running the clMPI Himeno solver on two
// nodes for two iterations at the XS size.
func TracePreset(name string) (*trace.Tracer, error) {
	if err := CheckTracePreset(name); err != nil {
		return nil, err
	}
	trc, _, err := TraceHimeno(tracePresets[name](), himeno.CLMPI, himeno.SizeXS, 2, 2)
	return trc, err
}

var tracePresets = map[string]func() cluster.System{"cichlid": cluster.Cichlid, "ricc": cluster.RICC}

// CheckTracePreset reports whether TracePreset knows name.
func CheckTracePreset(name string) error {
	if tracePresets[name] == nil {
		return fmt.Errorf("unknown preset %q (have: cichlid, ricc)", name)
	}
	return nil
}

// TracePartitioned runs the dense wildcard exchange (the matching-scaling
// workload) on a parts-way partitioned world of the named system (a preset
// name or spec file path) with one tracer per shard, and returns the merged,
// partition-tagged bus. Like TracePreset the output is byte-deterministic —
// the partitioned engine's event streams do not depend on the worker count
// — so the critical-path engine can be golden-tested on a genuinely
// parallel run.
func TracePartitioned(name string, ranks, parts int) (*trace.Bus, error) {
	sys, err := cluster.Resolve(name)
	if err != nil {
		return nil, err
	}
	if parts < 2 {
		return nil, fmt.Errorf("tracepart: need >=2 partitions (got %d)", parts)
	}
	var tracers []*trace.Tracer
	instrument := func(pw *mpi.PartWorld) { tracers = trace.InstrumentPart(pw) }
	if _, err := matchWorkload(sys, ranks, 3, 25, 2, parts, parts, instrument); err != nil {
		return nil, err
	}
	buses := make([]*trace.Bus, len(tracers))
	for i, t := range tracers {
		buses[i] = t.Bus()
	}
	return trace.MergeBuses(buses...), nil
}

// ObservedOverlap extracts the headline observability numbers from a
// traced run's metrics: the communication/computation overlap ratio and the peak
// NIC-path utilization across all nodes (lanes named node*.tx / node*.rx).
func ObservedOverlap(trc *trace.Tracer) (overlap, nicUtil float64) {
	m := trc.Bus().Metrics()
	overlap, _ = m.Gauge("overlap.ratio")
	m.EachGauge(func(name string, v float64) {
		if strings.HasSuffix(name, ".tx.util") || strings.HasSuffix(name, ".rx.util") {
			if v > nicUtil {
				nicUtil = v
			}
		}
	})
	return overlap, nicUtil
}

// MeasureP2PTraced is MeasureP2P with full observability: when trc is
// non-nil, queues, MPI protocol, and cluster links record onto its bus.
func MeasureP2PTraced(sys cluster.System, st clmpi.Strategy, block, size int64, trc *trace.Tracer) (float64, error) {
	opts := clmpi.Options{Strategy: st, PipelineBlock: block}
	if trc == nil { // a nil *trace.Tracer would be a non-nil Instrumenter
		return clmpi.MeasureP2P(sys, opts, size, nil)
	}
	return clmpi.MeasureP2P(sys, opts, size, trc)
}

package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cl"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/mpi"
	"repro/internal/sim"
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
// TracePresetNames lists the valid TracePreset arguments, for flag
// validation.
func TracePresetNames() []string { return []string{"cichlid", "ricc"} }

func TracePreset(name string) (*trace.Tracer, error) {
	var sys cluster.System
	switch name {
	case "cichlid":
		sys = cluster.Cichlid()
	case "ricc":
		sys = cluster.RICC()
	default:
		return nil, fmt.Errorf("unknown preset %q (have: cichlid, ricc)", name)
	}
	trc, _, err := TraceHimeno(sys, himeno.CLMPI, himeno.SizeXS, 2, 2)
	return trc, err
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
	eng := sim.NewEngine()
	clus := cluster.New(eng, sys, 2)
	world := mpi.NewWorld(clus)
	opts := clmpi.Options{Strategy: st}
	if block > 0 {
		opts.PipelineBlock = block
	}
	fab := clmpi.New(world, opts)
	if trc != nil {
		trc.Instrument(clus, world, fab)
	}
	var elapsed time.Duration
	var firstErr error
	world.LaunchRanks("bw", func(p *sim.Proc, ep *mpi.Endpoint) {
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), fmt.Sprintf("bw%d", ep.Rank()))
		if trc != nil {
			trc.InstrumentContext(ctx)
		}
		rt := fab.Attach(ctx, ep)
		q := ctx.NewQueue(fmt.Sprintf("bwq%d", ep.Rank()))
		buf, err := ctx.CreateBuffer("payload", size)
		if err != nil {
			firstErr = err
			return
		}
		// Release recycles the backing block so a sweep's next point reuses
		// it instead of allocating a fresh multi-megabyte slice.
		defer buf.Release()
		if ep.Rank() == 0 {
			start := p.Now()
			if _, err := rt.EnqueueSendBuffer(p, q, buf, true, 0, size, 1, 0, world.Comm(), nil); err != nil {
				firstErr = err
				return
			}
			elapsed = p.Now().Sub(start)
		} else {
			if _, err := rt.EnqueueRecvBuffer(p, q, buf, true, 0, size, 0, 0, world.Comm(), nil); err != nil {
				firstErr = err
			}
		}
	})
	if err := eng.Run(); err != nil {
		return 0, err
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(size) / elapsed.Seconds(), nil
}

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/trace"
	"repro/internal/trace/critpath"
)

// traceCLMPI runs the reference instrumented configuration and returns the
// tracer plus its Chrome export.
func traceCLMPI(t *testing.T) (*trace.Tracer, []byte) {
	t.Helper()
	trc, _, err := TraceHimeno(cluster.Cichlid(), himeno.CLMPI, himeno.SizeXS, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trc.Bus().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return trc, buf.Bytes()
}

func TestTraceHimenoAllLayersPresent(t *testing.T) {
	trc, out := traceCLMPI(t)
	layers := map[string]int{}
	for _, ev := range trc.Bus().Events() {
		layers[ev.Layer]++
	}
	for _, layer := range []string{trace.LayerCL, trace.LayerMPI, trace.LayerCluster, trace.LayerApp} {
		if layers[layer] == 0 {
			t.Errorf("no events from layer %q (have %v)", layer, layers)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatalf("Chrome export missing traceEvents array")
	}
}

func TestTraceHimenoMetrics(t *testing.T) {
	trc, _ := traceCLMPI(t)
	m := trc.Bus().Metrics()
	if v, ok := m.Counter("cl.commands"); !ok || v <= 0 {
		t.Fatalf("cl.commands = %v, %v", v, ok)
	}
	eager, _ := m.Counter("mpi.eager")
	rendezvous, _ := m.Counter("mpi.rendezvous")
	if eager+rendezvous <= 0 {
		t.Fatalf("no MPI sends counted (eager=%v rendezvous=%v)", eager, rendezvous)
	}
	if h := m.Hist("mpi.msg_bytes"); h == nil || h.Count() <= 0 {
		t.Fatal("mpi.msg_bytes histogram empty")
	}
	if _, ok := m.Gauge("overlap.ratio"); !ok {
		t.Fatal("overlap.ratio gauge missing")
	}
	links := 0
	m.EachGauge(func(name string, _ float64) {
		if strings.HasPrefix(name, "link.") {
			links++
		}
	})
	if links == 0 {
		t.Fatal("no link utilization gauges")
	}
	overlap, nicUtil := ObservedOverlap(trc)
	if overlap <= 0 || overlap > 1 {
		t.Fatalf("clMPI overlap ratio = %v, want in (0, 1]", overlap)
	}
	if nicUtil <= 0 || nicUtil > 1 {
		t.Fatalf("NIC utilization = %v, want in (0, 1]", nicUtil)
	}
}

// TestTraceDeterminism is the acceptance gate for the exporter: two
// identical-seed simulations must produce byte-identical Chrome traces and
// byte-identical metrics renderings.
func TestTraceDeterminism(t *testing.T) {
	trcA, outA := traceCLMPI(t)
	trcB, outB := traceCLMPI(t)
	if !bytes.Equal(outA, outB) {
		t.Fatal("two identical runs produced different Chrome traces")
	}
	if a, b := trcA.Bus().Metrics().Format(), trcB.Bus().Metrics().Format(); a != b {
		t.Fatalf("metrics renderings differ:\n%s\nvs\n%s", a, b)
	}
}

func TestMeasureP2PTracedMatchesUntraced(t *testing.T) {
	sys := cluster.RICC()
	plain, err := MeasureP2P(sys, clmpi.Pipelined, 1<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	trc := trace.New()
	traced, err := MeasureP2PTraced(sys, clmpi.Pipelined, 1<<20, 8<<20, trc)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Fatalf("instrumentation changed the measurement: %v vs %v", plain, traced)
	}
	layers := map[string]bool{}
	for _, ev := range trc.Bus().Events() {
		layers[ev.Layer] = true
	}
	if !layers[trace.LayerCL] || !layers[trace.LayerMPI] || !layers[trace.LayerCluster] {
		t.Fatalf("traced transfer missing layers: %v", layers)
	}
	if _, ok := trc.Bus().Metrics().Counter("clmpi.strategy.pipelined"); !ok {
		t.Fatal("strategy selection not counted")
	}
}

// TestXferSpansInChromeExport: a traced peer transfer records one span per
// pipeline stage hop on the xfer layer, the per-stage metrics count them,
// and the stage names survive into the Chrome export.
func TestXferSpansInChromeExport(t *testing.T) {
	trc := trace.New()
	if _, err := MeasureP2PTraced(cluster.RICC(), clmpi.Peer, 1<<20, 4<<20, trc); err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, ev := range trc.Bus().Events() {
		if ev.Layer == trace.LayerXfer {
			stages[ev.Name]++
		}
	}
	const chunks = 4 // 4 MiB message, 1 MiB blocks
	for stage, want := range map[string]int{
		"setup": 2, "d2h.peer": chunks, "h2d.peer": chunks,
		"wire.send": chunks, "wire.recv": chunks,
	} {
		if stages[stage] != want {
			t.Errorf("xfer stage %q: %d spans, want %d (all: %v)", stage, stages[stage], want, stages)
		}
	}
	m := trc.Bus().Metrics()
	if c, ok := m.Counter("xfer.stage.wire.send.spans"); !ok || c != chunks {
		t.Errorf("xfer.stage.wire.send.spans = %v, %v; want %d", c, ok, chunks)
	}
	var buf bytes.Buffer
	if err := trc.Bus().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not JSON: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("d2h.peer")) {
		t.Error("Chrome export missing the d2h.peer stage spans")
	}
}

// TestTraceOutOfOrderQueues pins that an instrumented context traces its
// out-of-order queues like its in-order ones: the single-queue Himeno
// variant records every command of every rank — 7 per rank per iteration
// (two kernels, two packs, a send, a receive, and the unpack) — as a span
// on its queue's lane, and the causal graph leaves none of them orphaned.
func TestTraceOutOfOrderQueues(t *testing.T) {
	const nodes, iters, perIter = 2, 2, 7
	for _, sys := range []cluster.System{cluster.Cichlid(), cluster.RICC()} {
		trc, _, err := TraceHimeno(sys, himeno.CLMPIOutOfOrder, himeno.SizeXS, nodes, iters)
		if err != nil {
			t.Fatal(err)
		}
		perLane := map[string]int{}
		for _, sp := range trc.Spans() {
			perLane[sp.Lane]++
			if strings.HasPrefix(sp.Label, "kernel") && sp.End <= sp.Start {
				t.Errorf("%s: kernel span %+v has no length", sys.Name, sp)
			}
		}
		want := map[string]int{}
		for r := 0; r < nodes; r++ {
			want[fmt.Sprintf("clmpiooo.q%d", r)] = perIter * iters
		}
		if fmt.Sprint(perLane) != fmt.Sprint(want) {
			t.Errorf("%s: cl spans per lane = %v, want %v", sys.Name, perLane, want)
		}
		if n, _ := trc.Bus().Metrics().Counter("cl.commands"); n != nodes*iters*perIter {
			t.Errorf("%s: cl.commands = %v, want %d", sys.Name, n, nodes*iters*perIter)
		}
		if orphans := critpath.Orphans(trc.Bus()); len(orphans) != 0 {
			t.Errorf("%s: %d orphaned spans: %v", sys.Name, len(orphans), orphans)
		}
	}
}

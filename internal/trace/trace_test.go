package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestAddAndSpans(t *testing.T) {
	tr := New()
	tr.Bus().Span(LayerCL, "lane", "kernel x", 0, sim.Time(time.Millisecond))
	tr.Bus().Span(LayerCL, "lane", "read b", sim.Time(time.Millisecond), sim.Time(2*time.Millisecond))
	sp := tr.Spans()
	if len(sp) != 2 || sp[0].Label != "kernel x" || sp[1].End != sim.Time(2*time.Millisecond) {
		t.Fatalf("spans = %+v", sp)
	}
	if got := tr.BusyTime("lane"); got != sim.Time(2*time.Millisecond) {
		t.Fatalf("busy = %v", got)
	}
	if got := tr.BusyTime("other"); got != 0 {
		t.Fatalf("other lane busy = %v", got)
	}
}

func TestRenderEmpty(t *testing.T) {
	if got := New().Render(40); got != "(no spans)\n" {
		t.Fatalf("empty render = %q", got)
	}
}

func TestRenderGlyphs(t *testing.T) {
	tr := New()
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	tr.Bus().Span(LayerCL, "q0", "kernel jacobi", ms(0), ms(4))
	tr.Bus().Span(LayerCL, "q0", "clmpi.send x", ms(4), ms(6))
	tr.Bus().Span(LayerCL, "q1", "clmpi.recv y", ms(0), ms(2))
	tr.Bus().Span(LayerCL, "q1", "write buf", ms(2), ms(3))
	tr.Bus().Span(LayerCL, "q1", "pack(li=1)", ms(3), ms(4))
	tr.Bus().Span(LayerCL, "q1", "marker", ms(4), ms(5)) // invisible
	tr.Bus().Span(LayerCL, "q1", "mystery", ms(5), ms(6))
	out := tr.Render(60)
	for _, want := range []string{"K", "S", "R", "D", "P", "o", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Lanes render sorted, and the invisible marker leaves dots.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "q0") || !strings.HasPrefix(lines[1], "q1") {
		t.Errorf("lane order wrong:\n%s", out)
	}
}

func TestRenderProportions(t *testing.T) {
	tr := New()
	tr.Bus().Span(LayerCL, "q", "kernel k", 0, sim.Time(50*time.Millisecond))
	tr.Bus().Span(LayerCL, "q", "read r", sim.Time(50*time.Millisecond), sim.Time(100*time.Millisecond))
	out := tr.Render(100)
	ks := strings.Count(out, "K")
	ds := strings.Count(out, "D")
	if ks < 45 || ks > 55 || ds < 40 || ds > 55 {
		t.Fatalf("glyph proportions K=%d D=%d, want ≈50 each:\n%s", ks, ds, out)
	}
}

func TestObserverIntegration(t *testing.T) {
	// Observe a real queue: one kernel and one marker produce exactly one
	// visible span with correct timing.
	e := sim.NewEngine()
	c := cluster.New(e, cluster.Cichlid(), 1)
	ctx := cl.NewContext(cl.NewDevice(e, c.Nodes[0]), "ctx")
	q := ctx.NewQueue("lane0")
	tr := New()
	tr.InstrumentContext(ctx)
	k := &cl.Kernel{Name: "busy", Cost: func([]any) time.Duration { return 5 * time.Millisecond }}
	e.Spawn("host", func(p *sim.Proc) {
		if _, err := q.EnqueueNDRangeKernel(k, nil, nil); err != nil {
			t.Errorf("enqueue: %v", err)
		}
		if err := q.Finish(p); err != nil {
			t.Errorf("finish: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 2 { // kernel + marker
		t.Fatalf("spans = %+v", spans)
	}
	launch := cluster.Cichlid().GPU.KernelLaunch
	if got := spans[0].End.Sub(spans[0].Start); got != 5*time.Millisecond+launch {
		t.Fatalf("kernel span = %v", got)
	}
	if tr.BusyTime("lane0") != spans[0].End-spans[0].Start {
		t.Fatalf("busy time mismatch")
	}
}

func TestSpanZeroWidthStillVisible(t *testing.T) {
	tr := New()
	tr.Bus().Span(LayerCL, "q", "kernel k", sim.Time(time.Millisecond), sim.Time(time.Millisecond))
	tr.Bus().Span(LayerCL, "q", "pad", 0, sim.Time(100*time.Millisecond))
	out := tr.Render(50)
	if !strings.Contains(out, "K") {
		t.Fatalf("zero-width span invisible:\n%s", out)
	}
}

func TestUtilization(t *testing.T) {
	tr := New()
	ms := func(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }
	tr.Bus().Span(LayerCL, "busy", "kernel k", ms(0), ms(10))
	tr.Bus().Span(LayerCL, "half", "kernel k", ms(0), ms(5))
	out := tr.Utilization()
	if !strings.Contains(out, "busy") || !strings.Contains(out, "100.0%") {
		t.Fatalf("utilization missing full lane:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Fatalf("utilization missing half lane:\n%s", out)
	}
	if New().Utilization() != "(no spans)\n" {
		t.Fatal("empty utilization")
	}
}

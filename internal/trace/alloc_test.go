package trace

import (
	"testing"

	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// runCmds drives one simulated queue through n no-op commands, optionally
// fully instrumented (context observer + cluster adapters),
// and returns nothing — the caller measures its allocations.
func runCmds(tb testing.TB, n int, traced bool) {
	e := sim.NewEngine()
	c := cluster.New(e, cluster.Cichlid(), 1)
	ctx := cl.NewContext(cl.NewDevice(e, c.Nodes[0]), "ctx")
	q := ctx.NewQueue("q")
	if traced {
		tr := New()
		tr.Instrument(c, nil, nil)
		tr.InstrumentContext(ctx)
	}
	e.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if _, err := q.Enqueue("cmd", nil, func(*sim.Proc) error { return nil }); err != nil {
				tb.Errorf("enqueue: %v", err)
				return
			}
		}
		if err := q.Finish(p); err != nil {
			tb.Errorf("finish: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
}

// perCmdAllocs isolates the per-command allocation count from the fixed
// engine/queue setup cost by differencing two workload sizes.
func perCmdAllocs(tb testing.TB, traced bool) float64 {
	const small, large = 200, 600
	base := testing.AllocsPerRun(5, func() { runCmds(tb, small, traced) })
	full := testing.AllocsPerRun(5, func() { runCmds(tb, large, traced) })
	return (full - base) / float64(large-small)
}

// TestUntracedHotPathZeroCost is the "zero-cost when disabled" guard for the
// whole observability stack: with no tracer attached, the per-command
// enqueue → dispatch → complete path must stay within the engine's own
// allocation budget (command + event + wait-list bookkeeping). The ceiling
// is deliberately snug: if a future change makes the untraced path touch
// edge-state maps, emit bus events, or box observer interfaces
// unconditionally, the count jumps and this test trips. The traced run is
// measured alongside to prove the hooks are live (they must cost more).
func TestUntracedHotPathZeroCost(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	untraced := perCmdAllocs(t, false)
	traced := perCmdAllocs(t, true)
	t.Logf("allocs/command: untraced=%.2f traced=%.2f", untraced, traced)
	// The untraced path allocates the command, its event, and the engine's
	// scheduling records; 12 allocations of headroom covers Go-version
	// drift without masking an accidental always-on observer.
	if untraced > 12 {
		t.Errorf("untraced per-command allocations = %.2f, want <= 12 — the disabled observability path is no longer free", untraced)
	}
	if traced <= untraced {
		t.Errorf("traced per-command allocations (%.2f) not above untraced (%.2f) — instrumentation hooks appear dead", traced, untraced)
	}
}

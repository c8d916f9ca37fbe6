package obs

import (
	"math"
	"strings"
	"testing"
)

// TestPDESAttribution drives the hook set the way the engine does and checks
// that the report and the metric families agree on where the time went.
func TestPDESAttribution(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(2, 64)
	sm := NewSim(reg, rec)
	p := NewPDES(sm, 2)
	p.SetShardLabel(0, "ranks [0,4)")
	p.SetShardLabel(1, "ranks [4,8)")

	// Shard 0: one window (40ns), one advert (5ns), then a stall on shard 1
	// from t=100 closed at t=250 (150ns attributed to upstream 1).
	p.StepStart(0, 50)
	p.WindowDone(0, 1000, 40, 90)
	p.AdvertDone(0, 1200, 5, 95)
	p.StallBegin(0, 1, 1200, 1300, 100)
	p.StepStart(0, 250)
	// Shard 1: merge time only.
	p.MergeDone(1, 30)
	p.FixpointRound(1)
	p.EngineDone(300, 2)

	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-15 }
	if got := reg.CounterValue("clmpi_pdes_stall_seconds_total"); !near(got, 150e-9) {
		t.Fatalf("stall seconds = %v, want 150e-9", got)
	}
	if got := reg.CounterValue("clmpi_pdes_worker_seconds_total"); !near(got, 600e-9) {
		t.Fatalf("worker seconds = %v, want 600e-9 (300ns wall x 2 workers)", got)
	}
	occ := reg.GaugeValue("clmpi_pdes_worker_occupancy")
	if want := float64(40+5+30) / 600; !near(occ, want) {
		t.Fatalf("occupancy = %v, want %v", occ, want)
	}
	shard, up, sec := sm.TopStall()
	if shard != 0 || up != 1 || !near(sec, 150e-9) {
		t.Fatalf("TopStall = (%d,%d,%v), want (0,1,150e-9)", shard, up, sec)
	}

	var b strings.Builder
	if err := sm.Report(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"ranks [0,4)", "ranks [4,8)",
		"top stall source",
		"shard1 (0.000s)", // shard 0's dominant upstream
		"windows=1 stalls=1 adverts=1 fixpoints=1 deadlocks=0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// The stall interval must also be in the flight recorder.
	var begin, end bool
	for _, ev := range rec.Snapshot() {
		switch ev.Kind {
		case KindStallBegin:
			begin = ev.Shard == 0 && ev.Ch == 1 && ev.A == 1200 && ev.B == 1300
		case KindStallEnd:
			end = ev.Shard == 0 && ev.Ch == 1 && ev.A == 150
		}
	}
	if !begin || !end {
		t.Fatalf("stall events missing from recorder (begin=%v end=%v)", begin, end)
	}
}

// TestSteadyStateHooksDoNotAllocate pins the acceptance bound directly: once
// an engine is attached (handles resolved, rings sized), the per-event hook
// path — window, advert, stall begin/end, merge — performs only atomic
// stores and adds. Zero allocations, deterministically, which is what lets
// the recorder stay always-on in production.
func TestSteadyStateHooksDoNotAllocate(t *testing.T) {
	sm := NewSim(NewRegistry(), NewRecorder(4, 1024))
	p := NewPDES(sm, 4)
	var tick int64
	if n := testing.AllocsPerRun(500, func() {
		tick += 100
		p.WindowDone(0, tick, 10, tick)
		p.AdvertDone(1, tick, 2, tick)
		p.StallBegin(2, 3, tick, tick+50, tick)
		p.StepStart(2, tick+40)
		p.MergeDone(3, 5)
		p.FixpointRound(1)
	}); n != 0 {
		t.Fatalf("steady-state hooks allocate %v allocs/op, want 0", n)
	}
}

// TestPDESDeadlockDump: declaring a deadlock with DeadlockDump set writes the
// post-mortem immediately, with the blocked-process description on the note
// board.
func TestPDESDeadlockDump(t *testing.T) {
	rec := NewRecorder(1, 64)
	sm := NewSim(NewRegistry(), rec)
	var dump strings.Builder
	sm.DeadlockDump = &dump
	p := NewPDES(sm, 1)
	if p.DeadlockDump == nil {
		t.Fatal("DeadlockDump must propagate Sim -> PDES")
	}
	p.StallBegin(0, 0, 10, 20, 5)
	p.Deadlock(777, "rank.rank0 (ssend 0->3 tag 9)")
	out := dump.String()
	for _, want := range []string{
		"conservative deadlock at vt=777ns",
		"deadlock at vt=777ns: rank.rank0 (ssend 0->3 tag 9)",
		"stall.begin",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("deadlock dump missing %q:\n%s", want, out)
		}
	}
}

// TestRecorderOnlyPDES: the bare-recorder shape (no registry) records events
// and labels without panicking on absent handles.
func TestRecorderOnlyPDES(t *testing.T) {
	rec := NewRecorder(2, 16)
	p := NewRecorderPDES(rec, 2)
	p.SetShardLabel(0, "ranks [0,2)")
	p.WindowDone(0, 100, 10, 50)
	p.StallBegin(1, 0, 100, 200, 60)
	p.StepStart(1, 90)
	p.EngineDone(100, 1)
	if n := len(rec.Snapshot()); n != 3 {
		t.Fatalf("recorded %d events, want 3 (window, stall pair)", n)
	}
	if notes := rec.Notes(); len(notes) != 1 || !strings.Contains(notes[0], "ranks [0,2)") {
		t.Fatalf("label note missing: %v", notes)
	}
}

// TestNilPDES: every hook must be callable through a nil *PDES — the
// engine's disabled configuration.
func TestNilPDES(t *testing.T) {
	var p *PDES
	if p != nil {
		t.Fatal("impossible")
	}
	// The engine guards each call with `if obs != nil`, so nil-receiver
	// methods are never reached; this test instead pins the cheap contract
	// that a zero-attached engine builds no PDES at all.
	if got := NewPDES(nil, 3); got.rec != nil || got.DeadlockDump != nil {
		t.Fatal("NewPDES(nil, k) must carry no recorder or dump sink")
	}
}

package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// infLA mirrors cluster.InfLookahead without importing the cluster package
// into sim's tests.
const infLA = time.Duration(math.MaxInt64)

// Asynchronous-protocol specifics: heterogeneous per-channel lookahead,
// worker-count independence of the event streams, the guards against a
// non-communicating channel, a non-positive lookahead, a self-addressed
// cross event and one in the past, and the scheduling counters.

// chainMatrix is a 3-shard pipeline topology: 0 feeds 1 (tight channel),
// 1 feeds 2 (loose channel), every other pair never communicates.
func chainMatrix() [][]time.Duration {
	return [][]time.Duration{
		{infLA, 10 * time.Microsecond, infLA},
		{infLA, infLA, 20 * time.Microsecond},
		{infLA, infLA, infLA},
	}
}

// runChain drives a 3-stage relay over the chain topology: shard 0 ticks and
// forwards to shard 1, which relays to shard 2. Each shard records into its
// own recorder, so the run is race-free at any worker count; the comparison
// payload is the per-shard streams plus the end time.
func runChain(t *testing.T, workers int) ([][]string, Time) {
	t.Helper()
	pe := NewPartitionedEngineMatrix(chainMatrix())
	recs := [3]*recorder{{}, {}, {}}
	pe.Shard(0).Spawn("src", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(3 * time.Microsecond)
			recs[0].rec(p.Now(), "tick")
			at := p.Now() + Time(10*time.Microsecond)
			pe.Cross(0, 1, at, func() {
				now := pe.Shard(1).Now()
				recs[1].rec(now, "relay")
				pe.Cross(1, 2, now+Time(20*time.Microsecond), func() {
					recs[2].rec(pe.Shard(2).Now(), "sink")
				})
			})
		}
	})
	if err := pe.Run(workers); err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	streams := make([][]string, 3)
	for i, r := range recs {
		streams[i] = r.entries
	}
	return streams, pe.Now()
}

// TestAsyncChainDeterministic: the relay pipeline over a heterogeneous
// matrix must produce identical per-shard streams and end time at every
// worker count, and the final sink event pins the expected virtual schedule.
func TestAsyncChainDeterministic(t *testing.T) {
	base, baseEnd := runChain(t, 1)
	if len(base[0]) != 5 || len(base[1]) != 5 || len(base[2]) != 5 {
		t.Fatalf("stream lengths: %d/%d/%d, want 5 each", len(base[0]), len(base[1]), len(base[2]))
	}
	// Last tick at 15µs, +10µs relay, +20µs sink.
	if got, want := base[2][4], "45µs sink"; got != want {
		t.Fatalf("final sink event = %q, want %q", got, want)
	}
	if baseEnd != Time(45*time.Microsecond) {
		t.Fatalf("end time = %v, want 45µs", time.Duration(baseEnd))
	}
	for workers := 2; workers <= 3; workers++ {
		got, end := runChain(t, workers)
		if end != baseEnd {
			t.Fatalf("workers=%d end time %v, want %v", workers, time.Duration(end), time.Duration(baseEnd))
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d streams diverge:\n  got  %v\n  want %v", workers, got, base)
		}
	}
}

// TestAsyncCounters: a communicating multi-shard run must report windows and
// floor advertisements; the counters are host-scheduling dependent, so only
// their positivity is asserted.
func TestAsyncCounters(t *testing.T) {
	pe := NewPartitionedEngineMatrix(chainMatrix())
	pe.Shard(0).Spawn("src", func(p *Proc) {
		p.Sleep(time.Microsecond)
		pe.Cross(0, 1, p.Now()+Time(10*time.Microsecond), func() {})
	})
	if err := pe.Run(3); err != nil {
		t.Fatalf("run: %v", err)
	}
	if pe.Windows() == 0 {
		t.Error("no windows counted")
	}
	if pe.Adverts() == 0 {
		t.Error("no floor advertisements counted")
	}
	if pe.Lookahead() != 10*time.Microsecond {
		t.Errorf("Lookahead() = %v, want the tightest finite channel 10µs", pe.Lookahead())
	}
}

// TestCrossNonCommunicatingPanics: emitting over a channel the matrix
// declares infinite is a topology bug and must fail loudly, not silently
// break conservatism.
func TestCrossNonCommunicatingPanics(t *testing.T) {
	pe := NewPartitionedEngineMatrix(chainMatrix())
	var recovered any
	pe.Shard(2).Spawn("violator", func(p *Proc) {
		defer func() { recovered = recover() }()
		p.Sleep(time.Microsecond)
		// The chain topology has no 2->0 channel.
		pe.Cross(2, 0, p.Now()+Time(time.Second), func() {})
	})
	if err := pe.Run(3); err != nil {
		t.Fatalf("run: %v", err)
	}
	msg, ok := recovered.(string)
	if !ok || !strings.Contains(msg, "non-communicating") {
		t.Fatalf("recovered %v, want a non-communicating channel panic", recovered)
	}
}

// TestNonPositiveLookaheadPanics: a zero or negative finite entry voids the
// conservative independence argument, so the constructor refuses it.
func TestNonPositiveLookaheadPanics(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Microsecond} {
		la := chainMatrix()
		la[1][2] = d
		msg, _ := recovered(func() { NewPartitionedEngineMatrix(la) }).(string)
		if !strings.Contains(msg, "L[1][2]") || !strings.Contains(msg, "not positive") {
			t.Fatalf("lookahead %v: recovered %q, want a non-positive lookahead panic", d, msg)
		}
	}
}

// TestCrossToSelfPanics: cross events travel between distinct shards; one
// addressed to its own shard is a caller bug.
func TestCrossToSelfPanics(t *testing.T) {
	pe := NewPartitionedEngineMatrix(chainMatrix())
	msg, _ := recovered(func() { pe.Cross(1, 1, Time(time.Second), func() {}) }).(string)
	if !strings.Contains(msg, "to itself") {
		t.Fatalf("recovered %q, want a same-shard cross panic", msg)
	}
}

// TestCrossEventInPastPanics: a cross event below the shard's clock can only
// come from a broken protocol, so both the driver's view (nextEventTime) and
// the scheduler refuse it instead of delivering it late.
func TestCrossEventInPastPanics(t *testing.T) {
	past := func() *Engine {
		e := newWindowedEngine()
		e.now = Time(10 * time.Microsecond)
		e.mergeCrossEvents(0, 1, []Time{Time(5 * time.Microsecond)}, []func(){func() {}})
		return e
	}
	for name, run := range map[string]func(e *Engine){
		"nextEventTime": func(e *Engine) { e.nextEventTime() },
		"runWindow":     func(e *Engine) { e.runWindow(timeInf) },
	} {
		e := past()
		if msg, _ := recovered(func() { run(e) }).(string); !strings.Contains(msg, "cross event in the past") {
			t.Fatalf("%s: recovered %q, want a cross-event-in-the-past panic", name, msg)
		}
	}
}

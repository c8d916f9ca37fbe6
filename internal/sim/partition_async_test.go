package sim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Asynchronous-protocol specifics: worker-count independence of the event
// streams, the closed-form quiescence fixpoint, the guards against a
// non-uniform, infinite or non-positive lookahead, a self-addressed cross
// event and one in the past, and the scheduling counters.

// chainLA is the lookahead of the 3-shard relay below: its first hop lands
// exactly one lookahead after the tick, its second hop two.
const chainLA = 10 * time.Microsecond

// runChain drives a 3-stage relay: shard 0 ticks and forwards to shard 1,
// which relays to shard 2. Each shard records into its own recorder, so the
// run is race-free at any worker count; the comparison payload is the
// per-shard streams plus the end time.
func runChain(t *testing.T, workers int) ([][]string, Time) {
	t.Helper()
	pe := NewPartitionedEngineMatrix(uniformLA(3, chainLA))
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

// TestAsyncChainDeterministic: the relay pipeline must produce identical per-shard streams and end time at every
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
	pe := NewPartitionedEngineMatrix(uniformLA(3, chainLA))
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
}

// bellmanFloors is the general quiescence fixpoint, kept as the oracle for
// fixpointBound: relax floor(i) = min(next(i), min over j != i of
// floor(j)+la) downward from the event anchors until nothing changes, then
// derive each shard's horizon, min over j != i of floor(j)+la.
func bellmanFloors(next []Time, la Time) (floors, horizons []Time) {
	k := len(next)
	floors = append([]Time(nil), next...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if j == i {
					continue
				}
				if v := satAdd(floors[j], la); v < floors[i] {
					floors[i] = v
					changed = true
				}
			}
		}
	}
	horizons = make([]Time, k)
	for i := range horizons {
		horizons[i] = timeInf
		for j := 0; j < k; j++ {
			if j != i {
				horizons[i] = min(horizons[i], satAdd(floors[j], la))
			}
		}
	}
	return floors, horizons
}

// TestFixpointClosedFormMatchesBellman: on random event anchors (idle shards
// at timeInf, ties, events within one lookahead of each other) and K in
// [1, 16], the closed form gives every shard the Bellman floor and frees
// exactly the shards whose next event clears their Bellman horizon.
func TestFixpointClosedFormMatchesBellman(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		k := 1 + rng.Intn(16)
		la := Time(1 + rng.Intn(50))
		next := make([]Time, k)
		for i := range next {
			if rng.Intn(3) == 0 {
				next[i] = timeInf
			} else {
				next[i] = Time(rng.Intn(200))
			}
		}
		floors, horizons := bellmanFloors(next, la)
		bound := fixpointBound(next, la)
		for i, n := range next {
			if got := min(n, bound); got != floors[i] {
				t.Fatalf("next=%v la=%v: floor(%d) = %v, Bellman %v", next, la, i, got, floors[i])
			}
			if n != timeInf && (n < bound) != (n < horizons[i]) {
				t.Fatalf("next=%v la=%v: shard %d freed=%v, Bellman horizon %v says %v",
					next, la, i, n < bound, horizons[i], n < horizons[i])
			}
		}
	}
}

// TestNonUniformLookaheadPanics: the engine keeps one lookahead for every
// shard pair, so a matrix with a second value, or an infinite entry (a pair
// that would never communicate), is refused at construction.
func TestNonUniformLookaheadPanics(t *testing.T) {
	for name, tc := range map[string]struct {
		d    time.Duration
		want string
	}{
		"differs":  {20 * time.Microsecond, "differs from L[0][1] = 10µs"},
		"infinite": {time.Duration(math.MaxInt64), "is infinite"},
	} {
		la := uniformLA(3, chainLA)
		la[1][2] = tc.d
		msg, _ := recovered(func() { NewPartitionedEngineMatrix(la) }).(string)
		if !strings.Contains(msg, "L[1][2]") || !strings.Contains(msg, tc.want) {
			t.Fatalf("%s: recovered %q, want a panic naming L[1][2] that %s", name, msg, tc.want)
		}
	}
}

// TestNonPositiveLookaheadPanics: a zero or negative entry voids the
// conservative independence argument, so the constructor refuses it.
func TestNonPositiveLookaheadPanics(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Microsecond} {
		la := uniformLA(3, chainLA)
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
	pe := NewPartitionedEngineMatrix(uniformLA(3, chainLA))
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

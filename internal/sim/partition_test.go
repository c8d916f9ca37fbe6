package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Window-edge behavior of the conservative partitioned driver:
// deterministic ordering of simultaneous cross-partition events, the
// one-partition degenerate case, the merged deadlock report, and the
// horizon-violation check.

// recorder collects (time, label) pairs from simulation callbacks. All the
// tests below arrange for records to come from a single shard (or from a
// serial execution), so no host locking is needed.
type recorder struct {
	entries []string
}

func (r *recorder) rec(at Time, label string) {
	r.entries = append(r.entries, time.Duration(at).String()+" "+label)
}

// uniformLA is a k-shard lookahead matrix with d between every pair.
func uniformLA(k int, d time.Duration) [][]time.Duration {
	la := make([][]time.Duration, k)
	for i := range la {
		la[i] = make([]time.Duration, k)
		for j := range la[i] {
			la[i][j] = d
		}
		la[i][i] = infLA
	}
	return la
}

// TestCrossTieBreakDeterministic: cross events carrying identical timestamps
// must execute in (time, source shard, source sequence) order regardless of
// emission order — the total order the drain step sorts by.
func TestCrossTieBreakDeterministic(t *testing.T) {
	pe := NewPartitionedEngineMatrix(uniformLA(4, 10*time.Microsecond))
	var r recorder
	at := Time(20 * time.Microsecond)
	mk := func(label string) func() {
		return func() { r.rec(pe.Shard(3).Now(), label) }
	}
	// Emission order scrambled relative to the expected execution order:
	// (at-5µs, src2) < (at, src0) < (at, src1) < (at, src2, seq1) < (at, src2, seq2).
	pe.Cross(2, 3, at, mk("A"))                          // src 2, seq 1
	pe.Cross(0, 3, at, mk("B"))                          // src 0, seq 1
	pe.Cross(2, 3, at, mk("C"))                          // src 2, seq 2
	pe.Cross(1, 3, at, mk("D"))                          // src 1, seq 1
	pe.Cross(2, 3, at-Time(5*time.Microsecond), mk("E")) // src 2, earlier time
	if err := pe.Run(4); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []string{"15µs E", "20µs B", "20µs D", "20µs A", "20µs C"}
	if !reflect.DeepEqual(r.entries, want) {
		t.Fatalf("cross order = %v, want %v", r.entries, want)
	}
}

// workloadAB builds a two-process mutex/trigger interaction on an engine; the
// recorded stream and end time are the comparison payload for the
// one-partition-equals-serial test.
func workloadAB(e *Engine, r *recorder) {
	m := NewMutex(e, "m")
	tr := NewTrigger(e, "t")
	e.Spawn("a", func(p *Proc) {
		m.Lock(p)
		p.Sleep(7 * time.Microsecond)
		m.Unlock(p)
		tr.Fire(nil)
		r.rec(p.Now(), "a")
	})
	e.Spawn("b", func(p *Proc) {
		tr.Wait(p)
		m.Lock(p)
		p.Sleep(3 * time.Microsecond)
		m.Unlock(p)
		r.rec(p.Now(), "b")
	})
}

// TestOnePartitionMatchesSerial: a single-partition world must be
// bit-for-bit the serial path — same event stream, same end time.
func TestOnePartitionMatchesSerial(t *testing.T) {
	var serialRec recorder
	eng := NewEngine()
	workloadAB(eng, &serialRec)
	if err := eng.Run(); err != nil {
		t.Fatalf("serial run: %v", err)
	}

	var partRec recorder
	pe := NewPartitionedEngineMatrix(uniformLA(1, 30*time.Microsecond))
	workloadAB(pe.Shard(0), &partRec)
	if err := pe.Run(4); err != nil {
		t.Fatalf("partitioned run: %v", err)
	}

	if !reflect.DeepEqual(partRec.entries, serialRec.entries) {
		t.Fatalf("streams diverge:\n  serial      %v\n  partitioned %v", serialRec.entries, partRec.entries)
	}
	if eng.Now() != pe.Now() {
		t.Fatalf("end times diverge: serial %v, partitioned %v",
			time.Duration(eng.Now()), time.Duration(pe.Now()))
	}
}

// TestPartitionedDeadlockMerged: when no shard can make progress the driver
// must report one DeadlockError merging every shard's parked processes,
// sorted like a serial report.
func TestPartitionedDeadlockMerged(t *testing.T) {
	pe := NewPartitionedEngineMatrix(uniformLA(2, 10*time.Microsecond))
	never0 := NewTrigger(pe.Shard(0), "never0")
	never1 := NewTrigger(pe.Shard(1), "never1")
	pe.Shard(0).Spawn("p0", func(p *Proc) { never0.Wait(p) })
	pe.Shard(1).Spawn("p1", func(p *Proc) { never1.Wait(p) })
	pe.Shard(1).Spawn("fine", func(p *Proc) { p.Sleep(time.Microsecond) })

	err := pe.Run(2)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("run = %v, want DeadlockError", err)
	}
	if !errors.Is(pe.Err(), err) {
		t.Fatalf("Err() = %v, want the run's %v", pe.Err(), err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("blocked = %v, want exactly the two parked procs", dl.Blocked)
	}
	if !strings.Contains(dl.Blocked[0], "p0") || !strings.Contains(dl.Blocked[0], "never0") {
		t.Fatalf("blocked[0] = %q, want p0 on never0", dl.Blocked[0])
	}
	if !strings.Contains(dl.Blocked[1], "p1") || !strings.Contains(dl.Blocked[1], "never1") {
		t.Fatalf("blocked[1] = %q, want p1 on never1", dl.Blocked[1])
	}
}

// TestCrossHorizonViolation: with a positive lookahead, a cross event landing
// inside the current window would break the conservative protocol, so the
// driver must refuse it loudly.
func TestCrossHorizonViolation(t *testing.T) {
	pe := NewPartitionedEngineMatrix(uniformLA(2, 10*time.Microsecond))
	var recovered any
	pe.Shard(0).Spawn("violator", func(p *Proc) {
		defer func() { recovered = recover() }()
		p.Sleep(5 * time.Microsecond)
		// First window is [0, 10µs); an event at 5µs is inside it.
		pe.Cross(0, 1, p.Now(), func() {})
	})
	if err := pe.Run(2); err != nil {
		t.Fatalf("run: %v", err)
	}
	msg, ok := recovered.(string)
	if !ok || !strings.Contains(msg, "violates window horizon") {
		t.Fatalf("recovered %v, want a horizon-violation panic", recovered)
	}
}

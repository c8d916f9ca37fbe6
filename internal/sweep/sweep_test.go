package sweep

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapNOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		out, err := MapN(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results, want 100", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapNEmpty(t *testing.T) {
	out, err := MapN(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("empty sweep: %v, %v", out, err)
	}
}

// TestMapNLowestIndexedError checks error determinism: whichever worker hits
// a failure first in host time, the reported error is the one the serial
// loop would have returned.
func TestMapNLowestIndexedError(t *testing.T) {
	fail := map[int]bool{7: true, 23: true, 61: true}
	wantErr := errors.New("point 7")
	for _, workers := range []int{1, 3, 8} {
		_, err := MapN(workers, 100, func(i int) (int, error) {
			if i == 7 {
				return 0, wantErr
			}
			if fail[i] {
				return 0, fmt.Errorf("point %d", i)
			}
			return i, nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v, want point 7's", workers, err)
		}
	}
}

// TestMapNCancelsAfterError checks that workers stop claiming points once a
// failure is recorded: with a serial-width pool the points after the failure
// never run, and with any width the claimed count stays well short of a full
// sweep when the first point fails.
func TestMapNCancelsAfterError(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	gate := make(chan struct{})
	_, err := MapN(2, 10_000, func(i int) (int, error) {
		if i == 0 {
			close(gate)
			return 0, boom
		}
		<-gate // no point beyond the failure finishes before the failure
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n > 100 {
		t.Fatalf("%d points ran after an index-0 failure; cancellation not effective", n)
	}
}

// TestMapNBoundedConcurrency checks the pool never runs more than the
// requested number of points at once.
func TestMapNBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	_, err := MapN(workers, 200, func(i int) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds pool width %d", p, workers)
	}
}

func TestSetWorkers(t *testing.T) {
	old := Workers()
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	if err := SetWorkers(-1); err == nil || Workers() != 3 {
		t.Fatalf("SetWorkers(-1) = %v, Workers() = %d; want an error and the width kept", err, Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after reset", Workers())
	}
	_ = old
}

func TestEach(t *testing.T) {
	var sum atomic.Int64
	if err := Each(50, func(i int) error { sum.Add(int64(i)); return nil }); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 49*50/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

// TestMapWeightedBoundedConcurrency: weight-w points claim w of the pool's
// slots, so the total weighted occupancy (points in flight x weight — the
// number of goroutine-partitions a partitioned-engine point would actually
// be running) stays within the configured width.
func TestMapWeightedBoundedConcurrency(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	out, err := MapWeighted(2, 40, func(i int) (int, error) {
		cur := inFlight.Add(2)
		defer inFlight.Add(-2)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak weighted occupancy %d exceeds pool width 4", p)
	}
}

// TestMapWeightedWiderThanPool: a point wider than the whole pool still
// runs — one point at a time, the unavoidable floor.
func TestMapWeightedWiderThanPool(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	_, err := MapWeighted(16, 6, func(i int) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("points in flight = %d, want strictly serial", p)
	}
}

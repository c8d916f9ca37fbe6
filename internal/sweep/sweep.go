// Package sweep runs independent simulation points across host cores.
//
// The paper's evaluation (§V) is a grid of independent experiments — system ×
// strategy × message size × node count — and each point runs on its own
// sim.Engine with no shared mutable state. One engine stays single-threaded
// (that is what makes virtual time deterministic), but distinct engines can
// run on distinct host cores. This package is the one place that host
// parallelism is introduced: a bounded worker pool with
//
//   - deterministic results: collected by grid index, never by completion
//     order, so parallel output is byte-identical to the serial path;
//   - deterministic errors: the error of the lowest-indexed failing point is
//     returned, which is the same error the serial loop would have hit;
//   - cancel-on-first-error: workers stop claiming new points once any point
//     fails (in-flight points finish — a running engine cannot be
//     interrupted).
package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the pool width used when a call does not specify one.
// Guarded by defaultMu; 0 means "use GOMAXPROCS at call time".
var (
	defaultMu      sync.Mutex
	defaultWorkers int
)

// Workers reports the current default pool width.
func Workers() int {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultWorkers > 0 {
		return defaultWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the default pool width for subsequent Map/Each calls.
// 0 restores the default (GOMAXPROCS), 1 forces fully serial execution, and
// a negative width is rejected, leaving the width as it was. The cmd tools'
// -parallel flag lands here.
func SetWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("sweep: negative worker count %d (want 0 for all host cores, or >= 1)", n)
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	defaultWorkers = n
	return nil
}

// Map evaluates fn(0..n-1) with the default pool width and returns the
// results indexed by point. On error the results are nil and the returned
// error is the one from the lowest failing index — exactly what a serial
// loop would have returned, provided fn is deterministic per index.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapN(Workers(), n, fn)
}

// Each is Map for point functions with no result.
func Each(n int, fn func(i int) error) error {
	_, err := Map(n, func(i int) (struct{}, error) { return struct{}{}, fn(i) })
	return err
}

// MapN is Map with an explicit pool width. workers <= 1 runs serially on the
// calling goroutine (no pool, no extra allocation); the parallel path spawns
// min(workers, n) goroutines that claim indices from a shared counter.
func MapN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		out := make([]T, n)
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	// The lowest-indexed error is deterministic even though which points ran
	// is not: every index below it that ran succeeded, and those that were
	// skipped are above some failing index anyway.
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}

// MapWeighted is Map for points that are themselves host-parallel: each
// point drives `weight` goroutines of its own (a partitioned engine's
// workers), so it must claim `weight` of the pool's slots, not one. The
// pool width shrinks to Workers()/weight points in flight (at least one),
// keeping the total number of concurrently executing goroutine-partitions
// within the configured width — except for the unavoidable floor when a
// single point is wider than the whole pool. weight <= 1 is plain Map.
func MapWeighted[T any](weight, n int, fn func(i int) (T, error)) ([]T, error) {
	if weight <= 1 {
		return Map(n, fn)
	}
	w := Workers() / weight
	if w < 1 {
		w = 1
	}
	return MapN(w, n, fn)
}

package critpath

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cl"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestNoOrphansRandomized is the connectivity property test: for randomized
// (but seeded, hence reproducible) workloads of 1–16 ranks mixing kernels,
// clMPI sends/receives over every transfer strategy, and varying wait-list
// shapes, every span the instrumentation emits must be reachable in the
// critical-path graph — no event may float free of the causal structure.
// The structural walk invariants (end-time identity, attribution sum) are
// checked on the same traces. CI also runs this under -race, which
// exercises the tracer hooks against the engine's goroutine handoffs.
func TestNoOrphansRandomized(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			b := randomTracedRun(t, seed)
			for _, id := range Orphans(b) {
				ev := b.Events()[id]
				t.Errorf("orphan span %d: layer=%s lane=%s name=%s [%d,%d)",
					id, ev.Layer, ev.Lane, ev.Name, ev.Start, ev.End)
			}
			checkIdentity(t, b, Analyze(b))
		})
	}
}

// randomTracedRun drives one fully instrumented random workload. All random
// choices are drawn up front, outside the rank bodies, so the simulated run
// itself stays deterministic for a given seed.
func randomTracedRun(t *testing.T, seed int64) *trace.Bus {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nranks := 1 + rng.Intn(16)
	rounds := 1 + rng.Intn(3)
	strategies := []clmpi.Strategy{clmpi.Auto, clmpi.Pinned, clmpi.Mapped, clmpi.Pipelined}
	st := strategies[rng.Intn(len(strategies))]
	// Cichlid is the 4-node GPU cluster of Table 1; larger worlds need the
	// RICC fabric.
	sys := cluster.Cichlid()
	if nranks > 4 {
		sys = cluster.RICC()
	}

	type roundPlan struct {
		kernelCost time.Duration
		msgBytes   int64
		sendWaitsK bool // send's wait list references the kernel event
	}
	plan := make([][]roundPlan, nranks)
	for r := range plan {
		plan[r] = make([]roundPlan, rounds)
		for k := range plan[r] {
			plan[r][k] = roundPlan{
				kernelCost: time.Duration(1+rng.Intn(500)) * time.Microsecond,
				msgBytes:   int64(1<<(10+rng.Intn(9))) + int64(rng.Intn(1000)),
				sendWaitsK: rng.Intn(2) == 0,
			}
		}
	}

	eng := sim.NewEngine()
	clus := cluster.New(eng, sys, nranks)
	world := mpi.NewWorld(clus)
	fab := clmpi.New(world, clmpi.Options{Strategy: st})
	trc := trace.New()
	trc.Instrument(clus, world, fab)

	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	world.LaunchRanks("rand", func(p *sim.Proc, ep *mpi.Endpoint) {
		me := ep.Rank()
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), fmt.Sprintf("rand%d", me))
		trc.InstrumentContext(ctx)
		rt := fab.Attach(ctx, ep)
		newQ := func(kind string) *cl.CommandQueue {
			return ctx.NewQueue(fmt.Sprintf("rand.%s%d", kind, me))
		}
		qc, qs, qr := newQ("qc"), newQ("qs"), newQ("qr")
		// The recv buffer must fit the *sender's* message sizes — a correct
		// MPI program posts receives at least as large as what arrives.
		src := (me + nranks - 1) % nranks
		var maxSend, maxRecv int64
		for k := range plan[me] {
			if plan[me][k].msgBytes > maxSend {
				maxSend = plan[me][k].msgBytes
			}
			if plan[src][k].msgBytes > maxRecv {
				maxRecv = plan[src][k].msgBytes
			}
		}
		sbuf, err := ctx.CreateBuffer("sbuf", maxSend)
		if err != nil {
			fail(err)
			return
		}
		rbuf, err := ctx.CreateBuffer("rbuf", maxRecv)
		if err != nil {
			fail(err)
			return
		}
		for k, rp := range plan[me] {
			cost := rp.kernelCost
			evK, err := qc.EnqueueNDRangeKernel(&cl.Kernel{
				Name: fmt.Sprintf("work%d", k),
				Cost: func([]any) time.Duration { return cost },
			}, nil, nil)
			if err != nil {
				fail(err)
				return
			}
			if nranks > 1 {
				var sendWaits []*cl.Event
				if rp.sendWaitsK {
					sendWaits = []*cl.Event{evK}
				}
				dst := (me + 1) % nranks
				if _, err := rt.EnqueueSendBuffer(p, qs, sbuf, false, 0, rp.msgBytes, dst, k, world.Comm(), sendWaits); err != nil {
					fail(err)
					return
				}
				if _, err := rt.EnqueueRecvBuffer(p, qr, rbuf, false, 0, plan[src][k].msgBytes, src, k, world.Comm(), nil); err != nil {
					fail(err)
					return
				}
			}
			for _, q := range []*cl.CommandQueue{qc, qs, qr} {
				if err := q.Finish(p); err != nil {
					fail(err)
					return
				}
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("seed %d (ranks=%d rounds=%d strategy=%v): %v", seed, nranks, rounds, st, err)
	}
	if firstErr != nil {
		t.Fatalf("seed %d: %v", seed, firstErr)
	}
	t.Logf("seed=%d ranks=%d rounds=%d strategy=%v events=%d", seed, nranks, rounds, st, len(trc.Bus().Events()))
	return trc.Bus()
}

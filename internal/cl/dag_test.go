package cl

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestPropRandomDAGRespectsDependencies builds random command DAGs across a
// random mix of in-order and out-of-order queues and checks the execution-
// model invariants the clMPI paper relies on (§IV-B):
//
//  1. no command starts before every event in its wait list has finished;
//  2. commands on one in-order queue start in enqueue order;
//  3. every command eventually completes (no lost wakeups).
func TestPropRandomDAGRespectsDependencies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		c := cluster.New(e, cluster.RICC(), 1)
		ctx := NewContext(NewDevice(e, c.Nodes[0]), "dag")

		// One to three in-order queues, then up to one out-of-order one.
		nInOrder := rng.Intn(3) + 1
		qs := []*CommandQueue{ctx.NewQueue("q0")}
		for i := 1; i < nInOrder; i++ {
			qs = append(qs, ctx.NewQueue(fmt.Sprintf("q%d", i)))
		}
		if rng.Intn(2) == 1 {
			qs = append(qs, ctx.NewOutOfOrderQueue("o0"))
		}

		nCmds := rng.Intn(24) + 4
		type rec struct {
			ev    *Event
			waits []*Event
			q     *CommandQueue
		}
		var recs []*rec
		ok := true
		e.Spawn("host", func(p *sim.Proc) {
			for i := 0; i < nCmds; i++ {
				// Random wait list drawn from already-enqueued commands.
				var waits []*Event
				for _, r := range recs {
					if rng.Intn(4) == 0 {
						waits = append(waits, r.ev)
					}
				}
				d := time.Duration(rng.Intn(500)) * time.Microsecond
				run := func(wp *sim.Proc) error {
					wp.Sleep(d)
					return nil
				}
				q := qs[rng.Intn(len(qs))]
				ev, err := q.Enqueue(fmt.Sprintf("c%d", i), waits, run)
				if err != nil {
					ok = false
					return
				}
				recs = append(recs, &rec{ev: ev, waits: waits, q: q})
				if rng.Intn(3) == 0 {
					p.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			}
			// Drain everything.
			for _, q := range qs {
				if err := q.Finish(p); err != nil {
					ok = false
				}
			}
		})
		if err := e.Run(); err != nil || !ok {
			return false
		}
		// Invariant 1 and 3.
		for _, r := range recs {
			if r.ev.Status() != Complete {
				return false
			}
			for _, w := range r.waits {
				if r.ev.StartedAt < w.FinishedAt {
					return false
				}
			}
		}
		// Invariant 2: per in-order queue, start times follow enqueue order.
		last := map[*CommandQueue]sim.Time{}
		for _, r := range recs {
			if r.q.outOfOrder {
				continue
			}
			if r.ev.StartedAt < last[r.q] {
				return false
			}
			last[r.q] = r.ev.StartedAt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

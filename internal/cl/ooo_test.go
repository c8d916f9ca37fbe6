package cl

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestOOOExecutesEligibleFirst(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewOutOfOrderQueue("ooo")
	user := ctx.CreateUserEvent("gate")
	var order []string
	mk := func(name string, waits []*Event) {
		_, err := q.Enqueue(name, waits, func(p *sim.Proc) error {
			order = append(order, name)
			p.Sleep(time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatalf("enqueue %s: %v", name, err)
		}
	}
	run(t, e, func(p *sim.Proc) {
		mk("gated", []*Event{user}) // enqueued first, eligible last
		mk("free", nil)
		p.Sleep(5 * time.Millisecond)
		user.SetStatus(nil)
		if err := q.Finish(p); err != nil {
			t.Errorf("finish: %v", err)
		}
	})
	if len(order) != 2 || order[0] != "free" || order[1] != "gated" {
		t.Fatalf("execution order %v: out-of-order queue behaved in order", order)
	}
}

func TestOOOCommandsOverlapInTime(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewOutOfOrderQueue("ooo")
	run(t, e, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := q.Enqueue("sleep", nil, func(wp *sim.Proc) error {
				wp.Sleep(10 * time.Millisecond)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.Finish(p); err != nil {
			t.Errorf("finish: %v", err)
		}
		// Three independent 10ms commands overlap fully (they only sleep,
		// no shared resource).
		if p.Now() != sim.Time(10*time.Millisecond) {
			t.Errorf("independent commands serialized: done at %v", p.Now())
		}
	})
}

func TestOOOKernelsStillSerializeOnDevice(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewOutOfOrderQueue("ooo")
	k := &Kernel{Name: "k", Cost: func([]any) time.Duration { return 10 * time.Millisecond }}
	run(t, e, func(p *sim.Proc) {
		q.EnqueueNDRangeKernel(k, nil, nil)
		q.EnqueueNDRangeKernel(k, nil, nil)
		if err := q.Finish(p); err != nil {
			t.Errorf("finish: %v", err)
		}
		if p.Now() < sim.Time(20*time.Millisecond) {
			t.Errorf("kernels overlapped on one device: %v", p.Now())
		}
	})
}

func TestOOOBarrierOrders(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewOutOfOrderQueue("ooo")
	var order []string
	slow := func(name string, d time.Duration) {
		q.Enqueue(name, nil, func(p *sim.Proc) error {
			p.Sleep(d)
			order = append(order, name)
			return nil
		})
	}
	run(t, e, func(p *sim.Proc) {
		slow("before-slow", 10*time.Millisecond)
		slow("before-fast", time.Millisecond)
		if _, err := q.EnqueueBarrier(); err != nil {
			t.Fatal(err)
		}
		slow("after", time.Microsecond)
		if err := q.Finish(p); err != nil {
			t.Errorf("finish: %v", err)
		}
	})
	if len(order) != 3 || order[2] != "after" {
		t.Fatalf("barrier violated: %v", order)
	}
}

func TestOOOMarkerWaitsPrior(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewOutOfOrderQueue("ooo")
	run(t, e, func(p *sim.Proc) {
		q.Enqueue("slow", nil, func(wp *sim.Proc) error {
			wp.Sleep(7 * time.Millisecond)
			return nil
		})
		mev, err := q.EnqueueMarker(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := mev.Wait(p); err != nil {
			t.Errorf("marker: %v", err)
		}
		if p.Now() != sim.Time(7*time.Millisecond) {
			t.Errorf("marker completed at %v", p.Now())
		}
	})
}

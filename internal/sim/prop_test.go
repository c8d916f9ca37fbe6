package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// TestPropClockIsMaxOfSleeps: for any set of independent sleepers the final
// clock equals the longest sleep, and each process observes exactly its own
// duration.
func TestPropClockIsMaxOfSleeps(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		if len(durs) > 64 {
			durs = durs[:64]
		}
		e := NewEngine()
		var max time.Duration
		ok := true
		for _, d := range durs {
			d := time.Duration(d) * time.Microsecond
			if d > max {
				max = d
			}
			e.Spawn("s", func(p *Proc) {
				p.Sleep(d)
				if p.Now() != Time(d) {
					ok = false
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok && e.Now() == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropClockMonotonic: interleaved sleeps and yields never observe the
// clock moving backwards.
func TestPropClockMonotonic(t *testing.T) {
	f := func(steps []uint8) bool {
		e := NewEngine()
		if len(steps) > 128 {
			steps = steps[:128]
		}
		good := true
		for w := 0; w < 3; w++ {
			e.Spawn("w", func(p *Proc) {
				last := p.Now()
				for _, s := range steps {
					p.Sleep(time.Duration(s) * time.Nanosecond)
					if p.Now() < last {
						good = false
					}
					last = p.Now()
				}
			})
		}
		return e.Run() == nil && good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropQueuePreservesOrder: any sequence of puts is received in order,
// regardless of consumer timing.
func TestPropQueuePreservesOrder(t *testing.T) {
	f := func(values []int32, consumerDelayUS uint8) bool {
		e := NewEngine()
		q := NewQueue[int32](e, "q")
		var got []int32
		e.Spawn("producer", func(p *Proc) {
			for _, v := range values {
				q.Put(v)
				p.Sleep(time.Microsecond)
			}
			q.Close()
		})
		e.Spawn("consumer", func(p *Proc) {
			p.Sleep(time.Duration(consumerDelayUS) * time.Microsecond)
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(values) {
			return false
		}
		for i := range got {
			if got[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropTriggerNeverEarly: a waiter can never resume before the trigger's
// scheduled fire time.
func TestPropTriggerNeverEarly(t *testing.T) {
	f := func(delayUS uint16, nWaiters uint8) bool {
		e := NewEngine()
		tr := NewTrigger(e, "t")
		d := time.Duration(delayUS) * time.Microsecond
		good := true
		n := int(nWaiters%8) + 1
		for i := 0; i < n; i++ {
			e.Spawn("w", func(p *Proc) {
				tr.Wait(p)
				if p.Now() < Time(d) {
					good = false
				}
			})
		}
		e.Spawn("f", func(p *Proc) {
			p.Sleep(d)
			tr.Fire(nil)
		})
		return e.Run() == nil && good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropLinkThroughputAdditive: total time on a contended FIFO link equals
// the sum of the serialization times, independent of arrival pattern.
func TestPropLinkThroughputAdditive(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		e := NewEngine()
		l := NewLink(e, "l", 1e6) // 1 byte/µs
		var total time.Duration
		for _, s := range sizes {
			n := int64(s)
			total += l.SerializationTime(n)
			e.Spawn("t", func(p *Proc) { l.Occupy(p, l.SerializationTime(n), "xfer", n) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == Time(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropSemaphoreWidthBound: with k permits, at most k holders ever run
// concurrently and all jobs finish.
func TestPropSemaphoreWidthBound(t *testing.T) {
	f := func(nJobs, width uint8) bool {
		k := int(width%4) + 1
		n := int(nJobs%32) + 1
		e := NewEngine()
		s := NewSemaphore(e, "s", k)
		active, peak, finished := 0, 0, 0
		for i := 0; i < n; i++ {
			e.Spawn("j", func(p *Proc) {
				s.Acquire(p, 1)
				active++
				if active > peak {
					peak = active
				}
				p.Sleep(time.Microsecond)
				active--
				s.Release(p, 1)
				finished++
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return peak <= k && finished == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package cl

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bytepool"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// testRig wires one engine, one Cichlid node, and one context.
func testRig(t *testing.T) (*sim.Engine, *Context) {
	t.Helper()
	e := sim.NewEngine()
	c := cluster.New(e, cluster.Cichlid(), 1)
	dev := NewDevice(e, c.Nodes[0])
	return e, NewContext(dev, "test")
}

// queueModes builds a queue of either execution mode, for the tests that
// hold for both.
var queueModes = []struct {
	name string
	mk   func(*Context, string) *CommandQueue
}{
	{"in-order", (*Context).NewQueue},
	{"out-of-order", (*Context).NewOutOfOrderQueue},
}

// run executes body as the host process and fails the test on sim errors.
func run(t *testing.T, e *sim.Engine, body func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("host", body)
	if err := e.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
}

func TestCreateBufferValidation(t *testing.T) {
	_, ctx := testRig(t)
	if _, err := ctx.CreateBuffer("z", 0); !errors.Is(err, ErrInvalidValue) {
		t.Errorf("zero size: %v", err)
	}
	if _, err := ctx.CreateBuffer("n", -5); !errors.Is(err, ErrInvalidValue) {
		t.Errorf("negative size: %v", err)
	}
	total := ctx.Device.GlobalMemSize()
	b1, err := ctx.CreateBuffer("big", total-10)
	if err != nil {
		t.Fatalf("big alloc: %v", err)
	}
	if _, err := ctx.CreateBuffer("overflow", 11); !errors.Is(err, ErrOutOfResources) {
		t.Errorf("overflow alloc: %v", err)
	}
	if err := b1.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := b1.Release(); !errors.Is(err, ErrReleasedObject) {
		t.Errorf("double release: %v", err)
	}
	if _, err := ctx.CreateBuffer("again", total); err != nil {
		t.Errorf("alloc after release: %v", err)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	buf := ctx.MustCreateBuffer("b", 1024)
	src := make([]byte, 512)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, 512)
	run(t, e, func(p *sim.Proc) {
		if _, err := q.EnqueueWriteBuffer(p, buf, true, 100, 512, bytepool.Host(src), cluster.Pinned, nil); err != nil {
			t.Errorf("write: %v", err)
		}
		if _, err := q.EnqueueReadBuffer(p, buf, true, 100, 512, bytepool.Host(dst), cluster.Pinned, nil); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	if !bytes.Equal(src, dst) {
		t.Fatal("roundtrip corrupted data")
	}
}

// TestHostSegments writes each kind of host memory into a written buffer
// and reads it back into host bytes, on both queue modes: bytes round-trip
// exactly, zeros from an unwritten store clear the window, and a host
// segment shorter than the transfer is rejected either way.
func TestHostSegments(t *testing.T) {
	const n = 4096
	pattern := make([]byte, n)
	for i := range pattern {
		pattern[i] = byte(i*7 + 1)
	}
	sources := []struct {
		name string
		seg  func() bytepool.Seg
		want []byte
	}{
		{"host", func() bytepool.Seg { return bytepool.Host(bytes.Clone(pattern)) }, pattern},
		{"unwritten", func() bytepool.Seg { return bytepool.NewStore(n).Seg(0, n) }, make([]byte, n)},
		{"written", func() bytepool.Seg {
			st := bytepool.NewStore(n)
			copy(st.Bytes(), pattern)
			return st.Seg(0, n)
		}, pattern},
	}
	for _, m := range queueModes {
		for _, src := range sources {
			t.Run(m.name+"/"+src.name, func(t *testing.T) {
				e, ctx := testRig(t)
				q := m.mk(ctx, "q")
				buf := ctx.MustCreateBuffer("b", n)
				copy(buf.Bytes(), bytes.Repeat([]byte{0xEE}, n))
				got := make([]byte, n)
				run(t, e, func(p *sim.Proc) {
					if _, err := q.EnqueueWriteBuffer(p, buf, true, 0, n, src.seg(), cluster.Pinned, nil); err != nil {
						t.Errorf("write: %v", err)
					}
					if _, err := q.EnqueueReadBuffer(p, buf, true, 0, n, bytepool.Host(got), cluster.Pinned, nil); err != nil {
						t.Errorf("read: %v", err)
					}
					short := src.seg().Slice(0, n-1)
					if _, err := q.EnqueueWriteBuffer(p, buf, true, 0, n, short, cluster.Pinned, nil); !errors.Is(err, ErrInvalidValue) {
						t.Errorf("short write: %v", err)
					}
					if _, err := q.EnqueueReadBuffer(p, buf, true, 0, n, short, cluster.Pinned, nil); !errors.Is(err, ErrInvalidValue) {
						t.Errorf("short read: %v", err)
					}
				})
				if !bytes.Equal(got, src.want) {
					t.Fatalf("read back %v..., want %v...", got[:8], src.want[:8])
				}
			})
		}
	}
}

// TestUnwrittenReadMovesNoBytes: reading a never-written buffer into an
// unwritten host store, on either queue mode, materializes neither. Both
// are larger than bytepool's largest size class, so materializing either
// would allocate its full size.
func TestUnwrittenReadMovesNoBytes(t *testing.T) {
	const n = 1<<26 + 1
	for _, m := range queueModes {
		e, ctx := testRig(t)
		q := m.mk(ctx, "q")
		buf := ctx.MustCreateBuffer("b", n)
		host := bytepool.NewStore(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, e, func(p *sim.Proc) {
			if _, err := q.EnqueueReadBuffer(p, buf, true, 0, n, host.Seg(0, n), cluster.Pinned, nil); err != nil {
				t.Errorf("%s: read: %v", m.name, err)
			}
		})
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= n {
			t.Errorf("%s: the read allocated %d bytes, want no materialized store", m.name, d)
		}
	}
}

func TestTransferTiming(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	buf := ctx.MustCreateBuffer("b", 1<<20)
	host := make([]byte, 1<<20)
	node := ctx.Device.Node
	want := node.PCIeTime(1<<20, cluster.Pageable)
	run(t, e, func(p *sim.Proc) {
		start := p.Now()
		if _, err := q.EnqueueWriteBuffer(p, buf, true, 0, 1<<20, bytepool.Host(host), cluster.Pageable, nil); err != nil {
			t.Errorf("write: %v", err)
		}
		if got := p.Now().Sub(start); got != want {
			t.Errorf("pageable write took %v, want %v", got, want)
		}
		start = p.Now()
		if _, err := q.EnqueueReadBuffer(p, buf, true, 0, 1<<20, bytepool.Host(host), cluster.Pinned, nil); err != nil {
			t.Errorf("read: %v", err)
		}
		wantPinned := node.PCIeTime(1<<20, cluster.Pinned)
		if got := p.Now().Sub(start); got != wantPinned {
			t.Errorf("pinned read took %v, want %v", got, wantPinned)
		}
		if wantPinned >= want {
			t.Error("pinned should be faster than pageable")
		}
	})
}

func TestNonBlockingReturnsImmediately(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	buf := ctx.MustCreateBuffer("b", 1<<20)
	host := make([]byte, 1<<20)
	run(t, e, func(p *sim.Proc) {
		ev, err := q.EnqueueWriteBuffer(p, buf, false, 0, 1<<20, bytepool.Host(host), cluster.Pageable, nil)
		if err != nil {
			t.Errorf("write: %v", err)
		}
		if p.Now() != 0 {
			t.Errorf("non-blocking enqueue advanced host clock to %v", p.Now())
		}
		if ev.Status() == Complete {
			t.Error("command completed synchronously")
		}
		if werr := ev.Wait(p); werr != nil {
			t.Errorf("wait: %v", werr)
		}
		if ev.Status() != Complete {
			t.Error("event not complete after Wait")
		}
	})
}

func TestInOrderExecution(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	buf := ctx.MustCreateBuffer("b", 8)
	var order []string
	mk := func(name string, d time.Duration) *Kernel {
		return &Kernel{
			Name: name,
			Cost: func([]any) time.Duration { return d },
			Work: func([]any) error { order = append(order, name); return nil },
		}
	}
	run(t, e, func(p *sim.Proc) {
		// Enqueue a slow kernel then a fast one: in-order means the slow
		// one still finishes first.
		if _, err := q.EnqueueNDRangeKernel(mk("slow", 10*time.Millisecond), []any{buf}, nil); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		if _, err := q.EnqueueNDRangeKernel(mk("fast", time.Microsecond), []any{buf}, nil); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		if err := q.Finish(p); err != nil {
			t.Errorf("finish: %v", err)
		}
	})
	if len(order) != 2 || order[0] != "slow" || order[1] != "fast" {
		t.Fatalf("execution order %v, want [slow fast]", order)
	}
}

func TestCrossQueueWaitList(t *testing.T) {
	e, ctx := testRig(t)
	q0 := ctx.NewQueue("q0")
	q1 := ctx.NewQueue("q1")
	var kernelDone, readStart sim.Time
	k := &Kernel{
		Name: "k",
		Cost: func([]any) time.Duration { return 5 * time.Millisecond },
	}
	buf := ctx.MustCreateBuffer("b", 64)
	host := make([]byte, 64)
	run(t, e, func(p *sim.Proc) {
		kev, err := q0.EnqueueNDRangeKernel(k, nil, nil)
		if err != nil {
			t.Fatalf("kernel: %v", err)
		}
		kev.OnComplete(func(at sim.Time, _ error) { kernelDone = at })
		rev, err := q1.EnqueueReadBuffer(p, buf, false, 0, 64, bytepool.Host(host), cluster.Pinned, []*Event{kev})
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := rev.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		readStart = rev.StartedAt
	})
	if readStart < kernelDone || kernelDone == 0 {
		t.Fatalf("read started %v, kernel finished %v: wait list violated", readStart, kernelDone)
	}
}

func TestKernelFLOPsCost(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	g := ctx.Device.Node.Sys.GPU
	k := &Kernel{
		Name:  "flops",
		FLOPs: func([]any) float64 { return g.SustainedGFLOPS * 1e9 }, // exactly 1 second of work
	}
	run(t, e, func(p *sim.Proc) {
		ev, err := q.EnqueueNDRangeKernel(k, nil, nil)
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		if err := ev.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		want := time.Second + g.KernelLaunch
		if got := ev.FinishedAt.Sub(ev.StartedAt); got != want {
			t.Errorf("kernel took %v, want %v", got, want)
		}
	})
}

func TestKernelsSerializeOnDevice(t *testing.T) {
	e, ctx := testRig(t)
	q0 := ctx.NewQueue("q0")
	q1 := ctx.NewQueue("q1")
	k := &Kernel{Name: "k", Cost: func([]any) time.Duration { return 10 * time.Millisecond }}
	run(t, e, func(p *sim.Proc) {
		ev0, _ := q0.EnqueueNDRangeKernel(k, nil, nil)
		ev1, _ := q1.EnqueueNDRangeKernel(k, nil, nil)
		WaitForEvents(p, ev0, ev1)
		// Two queues, one GPU: compute must serialize (Fermi-era model).
		if p.Now() < sim.Time(20*time.Millisecond) {
			t.Errorf("kernels overlapped on one device: done at %v", p.Now())
		}
	})
}

func TestKernelValidation(t *testing.T) {
	for _, m := range queueModes {
		t.Run(m.name, func(t *testing.T) {
			_, ctx := testRig(t)
			q := m.mk(ctx, "q0")
			if _, err := q.EnqueueNDRangeKernel(nil, nil, nil); !errors.Is(err, ErrInvalidKernel) {
				t.Errorf("nil kernel: %v", err)
			}
			if _, err := q.EnqueueNDRangeKernel(&Kernel{Name: "none"}, nil, nil); !errors.Is(err, ErrInvalidKernel) {
				t.Errorf("no cost model: %v", err)
			}
			both := &Kernel{
				Name:  "both",
				FLOPs: func([]any) float64 { return 1 },
				Cost:  func([]any) time.Duration { return 1 },
			}
			if _, err := q.EnqueueNDRangeKernel(both, nil, nil); !errors.Is(err, ErrInvalidKernel) {
				t.Errorf("both cost models: %v", err)
			}
		})
	}
}

func TestUserEventGatesCommand(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	user := ctx.CreateUserEvent("gate")
	k := &Kernel{Name: "gated", Cost: func([]any) time.Duration { return time.Millisecond }}
	var started sim.Time
	run(t, e, func(p *sim.Proc) {
		ev, err := q.EnqueueNDRangeKernel(k, nil, []*Event{user})
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		p.Sleep(7 * time.Millisecond)
		if ev.Status() == Complete || ev.Status() == Running {
			t.Error("gated command ran before user event fired")
		}
		if err := user.SetStatus(nil); err != nil {
			t.Fatalf("SetStatus: %v", err)
		}
		if err := ev.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		started = ev.StartedAt
	})
	if started != sim.Time(7*time.Millisecond) {
		t.Fatalf("gated command started at %v, want 7ms", started)
	}
}

func TestUserEventErrorPropagates(t *testing.T) {
	for _, m := range queueModes {
		t.Run(m.name, func(t *testing.T) {
			e, ctx := testRig(t)
			q := m.mk(ctx, "q0")
			user := ctx.CreateUserEvent("bad")
			k := &Kernel{Name: "victim", Cost: func([]any) time.Duration { return time.Millisecond }}
			bang := errors.New("bang")
			run(t, e, func(p *sim.Proc) {
				ev, _ := q.EnqueueNDRangeKernel(k, nil, []*Event{user})
				user.SetStatus(bang)
				err := ev.Wait(p)
				if !errors.Is(err, ErrExecStatusError) {
					t.Errorf("dependent command error = %v, want ErrExecStatusError", err)
				}
			})
		})
	}
}

func TestSetStatusMisuse(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	run(t, e, func(p *sim.Proc) {
		ev, _ := q.EnqueueMarker(nil)
		if err := ev.Wait(p); err != nil {
			t.Fatalf("marker: %v", err)
		}
		if err := ev.SetStatus(nil); !errors.Is(err, ErrEventNotUserMade) {
			t.Errorf("SetStatus on command event: %v", err)
		}
		user := ctx.CreateUserEvent("u")
		if err := user.SetStatus(nil); err != nil {
			t.Fatalf("first SetStatus: %v", err)
		}
		if err := user.SetStatus(nil); !errors.Is(err, ErrInvalidEvent) {
			t.Errorf("second SetStatus: %v", err)
		}
	})
}

func TestMapUnmap(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	buf := ctx.MustCreateBuffer("b", 256)
	copy(buf.Bytes(), bytes.Repeat([]byte{0xAB}, 256))
	run(t, e, func(p *sim.Proc) {
		region, _, err := q.EnqueueMapBuffer(p, buf, true, true, 16, 64, nil)
		if err != nil {
			t.Fatalf("map: %v", err)
		}
		if len(region.Bytes) != 64 || region.Bytes[0] != 0xAB {
			t.Fatalf("mapped view wrong: len=%d first=%#x", len(region.Bytes), region.Bytes[0])
		}
		region.Bytes[0] = 0xCD
		// Double map is rejected.
		if _, _, err := q.EnqueueMapBuffer(p, buf, true, false, 0, 8, nil); !errors.Is(err, ErrMapped) {
			t.Errorf("double map: %v", err)
		}
		uev, err := q.EnqueueUnmapMemObject(region, nil)
		if err != nil {
			t.Fatalf("unmap: %v", err)
		}
		if err := uev.Wait(p); err != nil {
			t.Errorf("unmap wait: %v", err)
		}
		if buf.Bytes()[16] != 0xCD {
			t.Error("write through map not visible after unmap")
		}
		if _, err := q.EnqueueUnmapMemObject(region, nil); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("double unmap: %v", err)
		}
	})
}

func TestUnmapNotMapped(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	buf := ctx.MustCreateBuffer("b", 8)
	run(t, e, func(p *sim.Proc) {
		region := &MappedRegion{buf: buf}
		if _, err := q.EnqueueUnmapMemObject(region, nil); !errors.Is(err, ErrNotMapped) {
			t.Errorf("unmap unmapped: %v", err)
		}
	})
}

func TestCopyBuffer(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	src := ctx.MustCreateBuffer("src", 128)
	dst := ctx.MustCreateBuffer("dst", 128)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i)
	}
	run(t, e, func(p *sim.Proc) {
		ev, err := q.EnqueueCopyBuffer(src, dst, 32, 0, 64, nil)
		if err != nil {
			t.Fatalf("copy: %v", err)
		}
		if err := ev.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	if !bytes.Equal(dst.Bytes()[:64], src.Bytes()[32:96]) {
		t.Fatal("copy corrupted data")
	}
}

func TestRangeValidation(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	buf := ctx.MustCreateBuffer("b", 100)
	host := make([]byte, 200)
	run(t, e, func(p *sim.Proc) {
		cases := []struct{ off, size int64 }{{-1, 10}, {0, -1}, {90, 20}, {101, 0}}
		for _, c := range cases {
			if _, err := q.EnqueueReadBuffer(p, buf, false, c.off, c.size, bytepool.Host(host), cluster.Pinned, nil); !errors.Is(err, ErrInvalidValue) {
				t.Errorf("read [%d,%d): %v", c.off, c.size, err)
			}
			if _, err := q.EnqueueWriteBuffer(p, buf, false, c.off, c.size, bytepool.Host(host), cluster.Pinned, nil); !errors.Is(err, ErrInvalidValue) {
				t.Errorf("write [%d,%d): %v", c.off, c.size, err)
			}
		}
		// Host buffer too small.
		if _, err := q.EnqueueReadBuffer(p, buf, false, 0, 100, bytepool.Host(host[:10]), cluster.Pinned, nil); !errors.Is(err, ErrInvalidValue) {
			t.Errorf("short host read: %v", err)
		}
		// Released buffer.
		buf.Release()
		if _, err := q.EnqueueWriteBuffer(p, buf, false, 0, 10, bytepool.Host(host), cluster.Pinned, nil); !errors.Is(err, ErrReleasedObject) {
			t.Errorf("released write: %v", err)
		}
	})
}

func TestFinishDrainsQueue(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	k := &Kernel{Name: "k", Cost: func([]any) time.Duration { return time.Millisecond }}
	run(t, e, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, err := q.EnqueueNDRangeKernel(k, nil, nil); err != nil {
				t.Fatalf("enqueue %d: %v", i, err)
			}
		}
		if err := q.Finish(p); err != nil {
			t.Errorf("finish: %v", err)
		}
		launch := ctx.Device.Node.Sys.GPU.KernelLaunch
		want := sim.Time(5 * (time.Millisecond + launch))
		if p.Now() != want {
			t.Errorf("finish returned at %v, want %v", p.Now(), want)
		}
	})
}

func TestShutdownRejectsEnqueues(t *testing.T) {
	for _, m := range queueModes {
		t.Run(m.name, func(t *testing.T) {
			e, ctx := testRig(t)
			q := m.mk(ctx, "q0")
			run(t, e, func(p *sim.Proc) {
				q.Shutdown()
				q.Shutdown() // idempotent
				if _, err := q.EnqueueMarker(nil); !errors.Is(err, ErrQueueShutDown) {
					t.Errorf("enqueue after shutdown: %v", err)
				}
			})
		})
	}
}

// TestFinishAfterShutdownDrains: Finish on a shut-down queue waits for the
// commands enqueued before the shutdown and reports their error, in either
// mode.
func TestFinishAfterShutdownDrains(t *testing.T) {
	boom := errors.New("boom")
	for _, m := range queueModes {
		for _, want := range []error{nil, boom} {
			t.Run(fmt.Sprintf("%s/err=%v", m.name, want), func(t *testing.T) {
				e, ctx := testRig(t)
				q := m.mk(ctx, "q0")
				run(t, e, func(p *sim.Proc) {
					ev, err := q.Enqueue("slow", nil, func(wp *sim.Proc) error {
						wp.Sleep(time.Millisecond)
						return want
					})
					if err != nil {
						t.Fatal(err)
					}
					q.Shutdown()
					if err := q.Finish(p); err != want {
						t.Errorf("finish = %v, want %v", err, want)
					}
					if ev.Status() != Complete || p.Now() != sim.Time(time.Millisecond) {
						t.Errorf("finish returned at %v with the command %v, want drained at 1ms", p.Now(), ev.Status())
					}
				})
			})
		}
	}
}

func TestFinishIdempotentAndEmpty(t *testing.T) {
	for _, m := range queueModes {
		t.Run(m.name, func(t *testing.T) {
			e, ctx := testRig(t)
			q := m.mk(ctx, "q0")
			run(t, e, func(p *sim.Proc) {
				if err := q.Finish(p); err != nil {
					t.Errorf("empty finish: %v", err)
				}
				q.Enqueue("x", nil, func(*sim.Proc) error { return nil })
				for i := 0; i < 3; i++ {
					if err := q.Finish(p); err != nil {
						t.Errorf("finish %d: %v", i, err)
					}
				}
			})
		})
	}
}

// TestFinishReturnsCommandError: Finish reports the first error of any
// command that completed on the queue since the previous Finish, whether
// the command was still running when Finish was called or had already
// completed, and the next Finish starts clean.
func TestFinishReturnsCommandError(t *testing.T) {
	boom := errors.New("boom")
	for _, m := range queueModes {
		for _, waitFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/completed=%v", m.name, waitFirst), func(t *testing.T) {
				e, ctx := testRig(t)
				q := m.mk(ctx, "q0")
				run(t, e, func(p *sim.Proc) {
					ev, err := q.Enqueue("bad", nil, func(wp *sim.Proc) error {
						wp.Sleep(time.Millisecond)
						return boom
					})
					if err != nil {
						t.Fatal(err)
					}
					q.Enqueue("good", nil, func(*sim.Proc) error { return nil })
					if waitFirst {
						ev.Wait(p)
					}
					if err := q.Finish(p); !errors.Is(err, boom) {
						t.Errorf("finish = %v, want boom", err)
					}
					if err := q.Finish(p); err != nil {
						t.Errorf("second finish = %v, want nil", err)
					}
				})
			})
		}
	}
}

func TestProfilingTimestampsOrdered(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	k := &Kernel{Name: "k", Cost: func([]any) time.Duration { return 3 * time.Millisecond }}
	run(t, e, func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		ev, _ := q.EnqueueNDRangeKernel(k, nil, nil)
		ev.Wait(p)
		if !(ev.QueuedAt <= ev.SubmittedAt && ev.SubmittedAt <= ev.StartedAt && ev.StartedAt < ev.FinishedAt) {
			t.Errorf("timestamps out of order: q=%v s=%v r=%v f=%v", ev.QueuedAt, ev.SubmittedAt, ev.StartedAt, ev.FinishedAt)
		}
		if ev.QueuedAt != sim.Time(time.Millisecond) {
			t.Errorf("QueuedAt = %v, want 1ms", ev.QueuedAt)
		}
	})
}

func TestWaitForEventsFirstError(t *testing.T) {
	e, ctx := testRig(t)
	errA := errors.New("a")
	run(t, e, func(p *sim.Proc) {
		u1 := ctx.CreateUserEvent("u1")
		u2 := ctx.CreateUserEvent("u2")
		u1.SetStatus(errA)
		u2.SetStatus(nil)
		if err := WaitForEvents(p, nil, u2, u1); !errors.Is(err, errA) {
			t.Errorf("WaitForEvents = %v, want errA", err)
		}
	})
}

// TestKernelErrorPropagatesButQueueSurvives: a failing kernel marks its
// event abnormal and poisons dependents, but the queue keeps executing
// independent commands — failure injection for the §IV event semantics.
func TestKernelErrorPropagatesButQueueSurvives(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	boom := errors.New("boom")
	bad := &Kernel{
		Name: "bad",
		Cost: func([]any) time.Duration { return time.Millisecond },
		Work: func([]any) error { return boom },
	}
	good := &Kernel{Name: "good", Cost: func([]any) time.Duration { return time.Millisecond }}
	run(t, e, func(p *sim.Proc) {
		bev, err := q.EnqueueNDRangeKernel(bad, nil, nil)
		if err != nil {
			t.Fatalf("enqueue bad: %v", err)
		}
		// A dependent command is terminated abnormally...
		dep, err := q.EnqueueNDRangeKernel(good, nil, []*Event{bev})
		if err != nil {
			t.Fatalf("enqueue dep: %v", err)
		}
		// ...but an independent one still runs.
		free, err := q.EnqueueNDRangeKernel(good, nil, nil)
		if err != nil {
			t.Fatalf("enqueue free: %v", err)
		}
		if werr := bev.Wait(p); !errors.Is(werr, boom) {
			t.Errorf("bad kernel error = %v", werr)
		}
		if werr := dep.Wait(p); !errors.Is(werr, ErrExecStatusError) {
			t.Errorf("dependent error = %v", werr)
		}
		if werr := free.Wait(p); werr != nil {
			t.Errorf("independent command failed: %v", werr)
		}
	})
}

// TestEventChainDepth: long dependency chains complete in order with no
// stack or scheduling pathologies.
func TestEventChainDepth(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q0")
	const depth = 200
	var count int
	k := &Kernel{
		Name: "link",
		Cost: func([]any) time.Duration { return time.Microsecond },
		Work: func([]any) error { count++; return nil },
	}
	run(t, e, func(p *sim.Proc) {
		var prev *Event
		for i := 0; i < depth; i++ {
			var waits []*Event
			if prev != nil {
				waits = []*Event{prev}
			}
			ev, err := q.EnqueueNDRangeKernel(k, nil, waits)
			if err != nil {
				t.Fatalf("enqueue %d: %v", i, err)
			}
			prev = ev
		}
		if err := prev.Wait(p); err != nil {
			t.Errorf("chain end: %v", err)
		}
	})
	if count != depth {
		t.Fatalf("ran %d of %d links", count, depth)
	}
}

// TestFinishAllDrainsEveryQueue finishes two queues of one device: their
// kernels overlap in launch but serialize on the single GPU.
func TestFinishAllDrainsEveryQueue(t *testing.T) {
	e, ctx := testRig(t)
	q1 := ctx.NewQueue("q1")
	q2 := ctx.NewQueue("q2")
	k := &Kernel{Name: "k", Cost: func([]any) time.Duration { return 3 * time.Millisecond }}
	run(t, e, func(p *sim.Proc) {
		q1.EnqueueNDRangeKernel(k, nil, nil)
		q2.EnqueueNDRangeKernel(k, nil, nil)
		for _, q := range []*CommandQueue{q1, q2} {
			if err := q.Finish(p); err != nil {
				t.Errorf("finish %s: %v", q.Label(), err)
			}
		}
		// The two launches overlap (separate queue workers) but the
		// kernels serialize on the single GPU: launch + 2 × 3ms.
		launch := ctx.Device.Node.Sys.GPU.KernelLaunch
		if p.Now() != sim.Time(6*time.Millisecond+launch) {
			t.Errorf("both queues drained at %v", p.Now())
		}
	})
}

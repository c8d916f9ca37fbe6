package clmpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/bytepool"
	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// rig builds an n-rank world with attached contexts and runtimes.
type rigT struct {
	eng  *sim.Engine
	w    *mpi.World
	fab  *Fabric
	ctxs []*cl.Context
	rts  []*Runtime
}

func newRig(t *testing.T, sys cluster.System, n int, opts Options) *rigT {
	t.Helper()
	e := sim.NewEngine()
	clus := cluster.New(e, sys, n)
	w := mpi.NewWorld(clus)
	fab := New(w, opts)
	r := &rigT{eng: e, w: w, fab: fab}
	for i := 0; i < n; i++ {
		ctx := cl.NewContext(cl.NewDevice(e, clus.Nodes[i]), fmt.Sprintf("ctx%d", i))
		r.ctxs = append(r.ctxs, ctx)
		r.rts = append(r.rts, fab.Attach(ctx, w.Endpoint(i)))
	}
	return r
}

func (r *rigT) run(t *testing.T, body func(p *sim.Proc, rank int)) {
	t.Helper()
	r.w.LaunchRanks("app", func(p *sim.Proc, ep *mpi.Endpoint) { body(p, ep.Rank()) })
	if err := r.eng.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
}

// pattern fills a deterministic test payload.
func pattern(n int64, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}

// TestDeviceToDeviceRoundtrip sends a device buffer window between two
// ranks with every one-shot and pipelined strategy, from in-order queues
// and (the "ooo-" cases) from out-of-order ones.
func TestDeviceToDeviceRoundtrip(t *testing.T) {
	for _, mode := range []struct {
		prefix string
		mk     func(*cl.Context, string) *cl.CommandQueue
	}{
		{"", (*cl.Context).NewQueue},
		{"ooo-", (*cl.Context).NewOutOfOrderQueue},
	} {
		for _, st := range []Strategy{Pinned, Mapped, Pipelined} {
			for _, size := range []int64{1, 4096, 1 << 20, 3<<20 + 12345} {
				t.Run(fmt.Sprintf("%s%v/%d", mode.prefix, st, size), func(t *testing.T) {
					r := newRig(t, cluster.RICC(), 2, Options{Strategy: st, PipelineBlock: 1 << 20})
					want := pattern(size, 5)
					var got []byte
					r.run(t, func(p *sim.Proc, rank int) {
						q := mode.mk(r.ctxs[rank], fmt.Sprintf("q%d", rank))
						buf := r.ctxs[rank].MustCreateBuffer("buf", size+64)
						if rank == 0 {
							copy(buf.Bytes()[32:], want)
							if _, err := r.rts[0].EnqueueSendBuffer(p, q, buf, true, 32, size, 1, 0, r.w.Comm(), nil); err != nil {
								t.Errorf("send: %v", err)
							}
						} else {
							if _, err := r.rts[1].EnqueueRecvBuffer(p, q, buf, true, 16, size, 0, 0, r.w.Comm(), nil); err != nil {
								t.Errorf("recv: %v", err)
							}
							got = append([]byte(nil), buf.Bytes()[16:16+size]...)
						}
					})
					if !bytes.Equal(got, want) {
						t.Fatal("payload corrupted in transit")
					}
				})
			}
		}
	}
}

// TestFig8Shapes asserts the qualitative claims of Figure 8 directly against
// measured sustained bandwidths.
func TestFig8Shapes(t *testing.T) {
	measure := func(sys cluster.System, st Strategy, block, size int64) float64 {
		r := newRig(t, sys, 2, Options{Strategy: st, PipelineBlock: block})
		var elapsed time.Duration
		r.run(t, func(p *sim.Proc, rank int) {
			q := r.ctxs[rank].NewQueue("q")
			buf := r.ctxs[rank].MustCreateBuffer("b", size)
			if rank == 0 {
				start := p.Now()
				r.rts[0].EnqueueSendBuffer(p, q, buf, true, 0, size, 1, 0, r.w.Comm(), nil)
				elapsed = p.Now().Sub(start)
			} else {
				r.rts[1].EnqueueRecvBuffer(p, q, buf, true, 0, size, 0, 0, r.w.Comm(), nil)
			}
		})
		return float64(size) / elapsed.Seconds()
	}

	const big = 32 << 20
	const small = 128 << 10

	// RICC (Fig 8b): pinned > mapped at every size; pipelined > pinned for
	// large messages.
	ricc := cluster.RICC()
	if p, m := measure(ricc, Pinned, 0, big), measure(ricc, Mapped, 0, big); p <= m {
		t.Errorf("RICC large: pinned %.0f <= mapped %.0f MB/s", p/1e6, m/1e6)
	}
	if p, m := measure(ricc, Pinned, 0, small), measure(ricc, Mapped, 0, small); p <= m {
		t.Errorf("RICC small: pinned %.0f <= mapped %.0f MB/s", p/1e6, m/1e6)
	}
	if pl, p := measure(ricc, Pipelined, 1<<20, big), measure(ricc, Pinned, 0, big); pl <= p {
		t.Errorf("RICC large: pipelined %.0f <= pinned %.0f MB/s", pl/1e6, p/1e6)
	}

	// Cichlid (Fig 8a): mapped beats pinned for small messages (setup
	// latency), and everything converges near the GbE wire rate for
	// large ones.
	ci := cluster.Cichlid()
	if m, p := measure(ci, Mapped, 0, small), measure(ci, Pinned, 0, small); m <= p {
		t.Errorf("Cichlid small: mapped %.0f <= pinned %.0f MB/s", m/1e6, p/1e6)
	}
	bwWire := ci.NIC.BW
	for _, st := range []Strategy{Pinned, Mapped} {
		got := measure(ci, st, 0, big)
		if got < 0.85*bwWire || got > bwWire {
			t.Errorf("Cichlid large %v: %.0f MB/s not within 15%% of wire %.0f MB/s", st, got/1e6, bwWire/1e6)
		}
	}
}

func TestPipelinedBlockSizeTradeoff(t *testing.T) {
	// Small blocks win for small messages (more overlap granularity);
	// large blocks win for very large messages (less per-block overhead) —
	// the pipelined(1) vs pipelined(4) crossover of Fig 8(b).
	measure := func(block, size int64) time.Duration {
		r := newRig(t, cluster.RICC(), 2, Options{Strategy: Pipelined, PipelineBlock: block})
		var elapsed time.Duration
		r.run(t, func(p *sim.Proc, rank int) {
			q := r.ctxs[rank].NewQueue("q")
			buf := r.ctxs[rank].MustCreateBuffer("b", size)
			if rank == 0 {
				start := p.Now()
				r.rts[0].EnqueueSendBuffer(p, q, buf, true, 0, size, 1, 0, r.w.Comm(), nil)
				elapsed = p.Now().Sub(start)
			} else {
				r.rts[1].EnqueueRecvBuffer(p, q, buf, true, 0, size, 0, 0, r.w.Comm(), nil)
			}
		})
		return elapsed
	}
	const mb = 1 << 20
	if small, large := measure(mb/4, 2*mb), measure(4*mb, 2*mb); small >= large {
		t.Errorf("2 MiB message: 256 KiB blocks (%v) should beat 4 MiB blocks (%v)", small, large)
	}
}

func TestNonBlockingSendFreesHost(t *testing.T) {
	r := newRig(t, cluster.RICC(), 2, Options{Strategy: Pipelined})
	r.run(t, func(p *sim.Proc, rank int) {
		q := r.ctxs[rank].NewQueue("q")
		buf := r.ctxs[rank].MustCreateBuffer("b", 8<<20)
		if rank == 0 {
			ev, err := r.rts[0].EnqueueSendBuffer(p, q, buf, false, 0, 8<<20, 1, 0, r.w.Comm(), nil)
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			if p.Now() != 0 {
				t.Errorf("non-blocking enqueue advanced host clock to %v", p.Now())
			}
			if err := ev.Wait(p); err != nil {
				t.Errorf("event: %v", err)
			}
		} else {
			r.rts[1].EnqueueRecvBuffer(p, q, buf, true, 0, 8<<20, 0, 0, r.w.Comm(), nil)
		}
	})
}

// TestCommandOverlapsKernel reproduces the scheduling essence of Fig. 4(c):
// a communication command on one queue overlaps a kernel on another queue of
// the same device, with the host thread blocked in neither.
func TestCommandOverlapsKernel(t *testing.T) {
	const size = 16 << 20
	kernelTime := 30 * time.Millisecond
	r := newRig(t, cluster.RICC(), 2, Options{Strategy: Pipelined})
	var total time.Duration
	r.run(t, func(p *sim.Proc, rank int) {
		commQ := r.ctxs[rank].NewQueue("comm")
		compQ := r.ctxs[rank].NewQueue("comp")
		buf := r.ctxs[rank].MustCreateBuffer("b", size)
		k := &cl.Kernel{Name: "busy", Cost: func([]any) time.Duration { return kernelTime }}
		start := p.Now()
		if rank == 0 {
			sev, err := r.rts[0].EnqueueSendBuffer(p, commQ, buf, false, 0, size, 1, 0, r.w.Comm(), nil)
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			kev, err := compQ.EnqueueNDRangeKernel(k, nil, nil)
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			if err := cl.WaitForEvents(p, sev, kev); err != nil {
				t.Errorf("wait: %v", err)
			}
			total = p.Now().Sub(start)
		} else {
			r.rts[1].EnqueueRecvBuffer(p, commQ, buf, true, 0, size, 0, 0, r.w.Comm(), nil)
		}
	})
	// 16 MiB over 1.3 GB/s is ≈12.9 ms, the kernel is 30 ms; full overlap
	// means total ≈ 30 ms, far below the 43 ms serial sum.
	if total >= kernelTime+10*time.Millisecond {
		t.Fatalf("kernel and communication serialized: total %v", total)
	}
	if total < kernelTime {
		t.Fatalf("impossible: total %v < kernel %v", total, kernelTime)
	}
}

// TestWaitListOrdersCommAfterKernel checks §IV-B: an inter-node send gated
// on a kernel's event must not start before the kernel finishes, without any
// host-side blocking.
func TestWaitListOrdersCommAfterKernel(t *testing.T) {
	r := newRig(t, cluster.RICC(), 2, Options{})
	kernelTime := 5 * time.Millisecond
	var sendStarted sim.Time
	r.run(t, func(p *sim.Proc, rank int) {
		q := r.ctxs[rank].NewQueue("q")
		buf := r.ctxs[rank].MustCreateBuffer("b", 1024)
		if rank == 0 {
			commQ := r.ctxs[0].NewQueue("comm")
			k := &cl.Kernel{Name: "produce", Cost: func([]any) time.Duration { return kernelTime }}
			kev, _ := q.EnqueueNDRangeKernel(k, nil, nil)
			sev, err := r.rts[0].EnqueueSendBuffer(p, commQ, buf, false, 0, 1024, 1, 0, r.w.Comm(), []*cl.Event{kev})
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			if err := sev.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
			}
			sendStarted = sev.StartedAt
		} else {
			r.rts[1].EnqueueRecvBuffer(p, q, buf, true, 0, 1024, 0, 0, r.w.Comm(), nil)
		}
	})
	launch := cluster.RICC().GPU.KernelLaunch
	if sendStarted < sim.Time(kernelTime+launch) {
		t.Fatalf("send started at %v, before kernel finished at %v", sendStarted, kernelTime+launch)
	}
}

// TestHostToDeviceCLMem reproduces Fig. 7: rank 0's host thread receives
// device data from rank 1 via plain MPI_Irecv with the CLMem datatype, while
// rank 1 sends with clEnqueueSendBuffer.
func TestHostToDeviceCLMem(t *testing.T) {
	const size = 3 << 20
	want := pattern(size, 9)
	got := make([]byte, size)
	r := newRig(t, cluster.RICC(), 2, Options{})
	r.run(t, func(p *sim.Proc, rank int) {
		ep := r.w.Endpoint(rank)
		if rank == 0 {
			req, err := ep.Irecv(p, got, 1, 0, mpi.CLMem, r.w.Comm())
			if err != nil {
				t.Fatalf("irecv: %v", err)
			}
			if _, err := req.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
			}
		} else {
			q := r.ctxs[1].NewQueue("q")
			buf := r.ctxs[1].MustCreateBuffer("b", size)
			copy(buf.Bytes(), want)
			if _, err := r.rts[1].EnqueueSendBuffer(p, q, buf, true, 0, size, 0, 0, r.w.Comm(), nil); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatal("CLMem host receive corrupted data")
	}
}

// TestCLMemIsendToDevice is the opposite direction: a host buffer pushed
// into a remote device via MPI_Isend(CL_MEM) + clEnqueueRecvBuffer — the
// nanopowder distribution pattern (§V-D).
func TestCLMemIsendToDevice(t *testing.T) {
	const size = 3 << 20
	want := pattern(size, 2)
	var got []byte
	r := newRig(t, cluster.RICC(), 2, Options{})
	r.run(t, func(p *sim.Proc, rank int) {
		ep := r.w.Endpoint(rank)
		if rank == 0 {
			req, err := ep.Isend(p, want, 1, 3, mpi.CLMem, r.w.Comm())
			if err != nil {
				t.Fatalf("isend: %v", err)
			}
			if _, err := req.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
			}
		} else {
			q := r.ctxs[1].NewQueue("q")
			buf := r.ctxs[1].MustCreateBuffer("b", size)
			if _, err := r.rts[1].EnqueueRecvBuffer(p, q, buf, true, 0, size, 0, 3, r.w.Comm(), nil); err != nil {
				t.Errorf("recv: %v", err)
			}
			got = append([]byte(nil), buf.Bytes()...)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatal("CLMem device receive corrupted data")
	}
}

// TestEventFromMPIRequest reproduces the dependency chain of Fig. 7: a
// device write command gated on both an MPI_Irecv completion and a kernel.
func TestEventFromMPIRequest(t *testing.T) {
	const size = 1 << 20
	r := newRig(t, cluster.RICC(), 2, Options{})
	want := pattern(size, 7)
	var writeStarted, recvDone sim.Time
	var final []byte
	r.run(t, func(p *sim.Proc, rank int) {
		ep := r.w.Endpoint(rank)
		if rank == 0 {
			q := r.ctxs[0].NewQueue("q")
			buf := r.ctxs[0].MustCreateBuffer("b", size)
			host := make([]byte, size)
			req, err := ep.Irecv(p, host, 1, 0, mpi.CLMem, r.w.Comm())
			if err != nil {
				t.Fatalf("irecv: %v", err)
			}
			mev := r.rts[0].CreateEventFromMPIRequest(req)
			k := &cl.Kernel{Name: "overlap", Cost: func([]any) time.Duration { return time.Millisecond }}
			kev, _ := q.EnqueueNDRangeKernel(k, nil, nil)
			wev, err := q.EnqueueWriteBuffer(p, buf, false, 0, size, bytepool.Host(host), cluster.Pinned, []*cl.Event{mev, kev})
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			if err := wev.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
			}
			writeStarted = wev.StartedAt
			recvDone = mev.FinishedAt
			final = append([]byte(nil), buf.Bytes()...)
		} else {
			q := r.ctxs[1].NewQueue("q")
			buf := r.ctxs[1].MustCreateBuffer("b", size)
			copy(buf.Bytes(), want)
			if _, err := r.rts[1].EnqueueSendBuffer(p, q, buf, true, 0, size, 0, 0, r.w.Comm(), nil); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	if writeStarted < recvDone || recvDone == 0 {
		t.Fatalf("WriteBuffer started %v before MPI_Irecv finished %v", writeStarted, recvDone)
	}
	if !bytes.Equal(final, want) {
		t.Fatal("gated write delivered wrong data")
	}
}

func TestAutoSelection(t *testing.T) {
	e := sim.NewEngine()
	mk := func(sys cluster.System) *Fabric {
		w := mpi.NewWorld(cluster.New(e, sys, 1))
		return New(w, Options{})
	}
	ci, ricc := cluster.Cichlid(), cluster.RICC()
	fci, fricc := mk(ci), mk(ricc)
	if pl := fci.plan(100<<10, &ci); pl.strategy != Mapped {
		t.Errorf("Cichlid small -> %v, want mapped (§V-B)", pl.strategy)
	}
	if pl := fricc.plan(100<<10, &ricc); pl.strategy != Pinned {
		t.Errorf("RICC small -> %v, want pinned (§V-B)", pl.strategy)
	}
	if pl := fricc.plan(8<<20, &ricc); pl.strategy != Pipelined || len(pl.chunks) != 8 {
		t.Errorf("RICC large -> %v/%d chunks, want pipelined/8", pl.strategy, len(pl.chunks))
	}
	// Remainder chunking.
	if pl := fricc.plan(2<<20+5, &ricc); len(pl.chunks) != 3 || pl.chunks[2] != 5 {
		t.Errorf("remainder chunks = %v", pl.chunks)
	}
}

func TestWindowValidation(t *testing.T) {
	r := newRig(t, cluster.RICC(), 2, Options{})
	r.run(t, func(p *sim.Proc, rank int) {
		if rank != 0 {
			return
		}
		q := r.ctxs[0].NewQueue("q")
		buf := r.ctxs[0].MustCreateBuffer("b", 100)
		cases := []struct{ off, size int64 }{{-1, 10}, {0, -2}, {50, 60}}
		for _, c := range cases {
			if _, err := r.rts[0].EnqueueSendBuffer(p, q, buf, false, c.off, c.size, 1, 0, r.w.Comm(), nil); !errors.Is(err, cl.ErrInvalidValue) {
				t.Errorf("send [%d,%d): %v", c.off, c.size, err)
			}
			if _, err := r.rts[0].EnqueueRecvBuffer(p, q, buf, false, c.off, c.size, 1, 0, r.w.Comm(), nil); !errors.Is(err, cl.ErrInvalidValue) {
				t.Errorf("recv [%d,%d): %v", c.off, c.size, err)
			}
		}
		if _, err := r.rts[0].EnqueueSendBuffer(p, q, nil, false, 0, 10, 1, 0, r.w.Comm(), nil); !errors.Is(err, cl.ErrInvalidBuffer) {
			t.Errorf("nil buffer: %v", err)
		}
	})
}

func TestRuntimeLookup(t *testing.T) {
	r := newRig(t, cluster.RICC(), 2, Options{})
	if _, err := r.fab.Runtime(0); err != nil {
		t.Errorf("attached runtime: %v", err)
	}
	if _, err := r.fab.Runtime(5); !errors.Is(err, ErrNilRuntime) {
		t.Errorf("missing runtime: %v", err)
	}
	r.run(t, func(p *sim.Proc, rank int) {})
}

func TestBadOptionsPanic(t *testing.T) {
	e := sim.NewEngine()
	w := mpi.NewWorld(cluster.New(e, cluster.RICC(), 1))
	defer func() {
		if recover() == nil {
			t.Fatal("negative block did not panic")
		}
	}()
	New(w, Options{PipelineBlock: -1})
}

func TestStrategyStringsAndParse(t *testing.T) {
	for _, st := range []Strategy{Auto, Pinned, Mapped, Pipelined, Peer} {
		got, block, err := ParseStrategy(st.String())
		if err != nil || got != st || block != 0 {
			t.Errorf("parse(%q) = %v, %d, %v", st.String(), got, block, err)
		}
	}
	if _, _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy parsed")
	}
}

// TestFullDuplexTransfers: simultaneous opposite-direction transfers share
// no resources (TX vs RX, D2H vs H2D), so both complete in roughly the time
// of one — the full-duplex property of the modelled fabric and PCIe.
func TestFullDuplexTransfers(t *testing.T) {
	const size = 16 << 20
	measure := func(bidirectional bool) time.Duration {
		r := newRig(t, cluster.RICC(), 2, Options{Strategy: Pipelined})
		var end sim.Time
		r.run(t, func(p *sim.Proc, rank int) {
			qs := r.ctxs[rank].NewQueue("qs")
			qr := r.ctxs[rank].NewQueue("qr")
			out := r.ctxs[rank].MustCreateBuffer("out", size)
			in := r.ctxs[rank].MustCreateBuffer("in", size)
			peer := 1 - rank
			var evs []*cl.Event
			if rank == 0 || bidirectional {
				ev, err := r.rts[rank].EnqueueSendBuffer(p, qs, out, false, 0, size, peer, rank, r.w.Comm(), nil)
				if err != nil {
					t.Errorf("send: %v", err)
					return
				}
				evs = append(evs, ev)
			}
			if rank == 1 || bidirectional {
				ev, err := r.rts[rank].EnqueueRecvBuffer(p, qr, in, false, 0, size, peer, peer, r.w.Comm(), nil)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				evs = append(evs, ev)
			}
			if err := cl.WaitForEvents(p, evs...); err != nil {
				t.Errorf("wait: %v", err)
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
		return end.Duration()
	}
	one := measure(false)
	both := measure(true)
	if both > one+one/5 {
		t.Fatalf("full duplex lost: bidirectional %v vs unidirectional %v", both, one)
	}
}

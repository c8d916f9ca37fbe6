package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// rig builds an n-node world on the given system.
func rig(t *testing.T, sys cluster.System, n int) (*sim.Engine, *World) {
	t.Helper()
	e := sim.NewEngine()
	c := cluster.New(e, sys, n)
	return e, NewWorld(c)
}

func mustRun(t *testing.T, e *sim.Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
}

func TestSendRecvRoundtrip(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	payload := []byte("hello from rank zero")
	got := make([]byte, 64)
	var st Status
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		switch ep.Rank() {
		case 0:
			if err := ep.Send(p, payload, 1, 7, Bytes, w.Comm()); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			var err error
			st, err = ep.Recv(p, got, 0, 7, Bytes, w.Comm())
			if err != nil {
				t.Errorf("recv: %v", err)
			}
		}
	})
	mustRun(t, e)
	if st.Source != 0 || st.Tag != 7 || st.Count != len(payload) {
		t.Fatalf("status = %+v", st)
	}
	if !bytes.Equal(got[:st.Count], payload) {
		t.Fatalf("payload corrupted: %q", got[:st.Count])
	}
}

func TestEagerSendCompletesWithoutReceiver(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		if ep.Rank() != 0 {
			// Rank 1 posts its receive very late.
			p.Sleep(time.Second)
			buf := make([]byte, EagerThreshold)
			if _, err := ep.Recv(p, buf, 0, 0, Bytes, w.Comm()); err != nil {
				t.Errorf("recv: %v", err)
			}
			return
		}
		req, err := ep.Isend(p, make([]byte, EagerThreshold), 1, 0, Bytes, w.Comm())
		if err != nil {
			t.Fatalf("isend: %v", err)
		}
		if _, err := req.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		if p.Now() >= sim.Time(time.Second) {
			t.Errorf("eager send blocked on receiver: completed at %v", p.Now())
		}
	})
	mustRun(t, e)
}

func TestRendezvousWaitsForReceiver(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	const delay = 100 * time.Millisecond
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		big := make([]byte, EagerThreshold+1)
		if ep.Rank() == 0 {
			req, err := ep.Isend(p, big, 1, 0, Bytes, w.Comm())
			if err != nil {
				t.Fatalf("isend: %v", err)
			}
			if done, _, _ := req.Test(); done {
				t.Error("rendezvous send completed before matching receive")
			}
			if _, err := req.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
			}
			if p.Now() < sim.Time(delay) {
				t.Errorf("rendezvous send finished at %v, before receive was posted", p.Now())
			}
		} else {
			p.Sleep(delay)
			if _, err := ep.Recv(p, big, 0, 0, Bytes, w.Comm()); err != nil {
				t.Errorf("recv: %v", err)
			}
		}
	})
	mustRun(t, e)
}

func TestSelfSend(t *testing.T) {
	e, w := rig(t, cluster.Cichlid(), 1)
	nic := &mLinkLog{}
	nd := w.Cluster().Nodes[0]
	nd.TX.SetObserver(nic)
	nd.RX.SetObserver(nic)
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		out := []byte{1, 2, 3, 4}
		in := make([]byte, 4)
		req, err := ep.Isend(p, out, 0, 5, Bytes, w.Comm())
		if err != nil {
			t.Fatalf("isend: %v", err)
		}
		st, err := ep.Recv(p, in, 0, 5, Bytes, w.Comm())
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		if _, err := req.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		if !bytes.Equal(in, out) || st.Count != 4 {
			t.Errorf("self message corrupted: %v %+v", in, st)
		}
	})
	mustRun(t, e)
	// Self messages never touch the NIC.
	if len(nic.evs) != 0 {
		t.Errorf("self send charged the NIC: %+v", nic.evs)
	}
}

func TestTagMatching(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		if ep.Rank() == 0 {
			ep.Send(p, []byte("tagged-3"), 1, 3, Bytes, w.Comm())
			ep.Send(p, []byte("tagged-9"), 1, 9, Bytes, w.Comm())
			return
		}
		buf := make([]byte, 32)
		// Receive tag 9 first even though tag 3 was sent first.
		st, err := ep.Recv(p, buf, 0, 9, Bytes, w.Comm())
		if err != nil || string(buf[:st.Count]) != "tagged-9" {
			t.Errorf("tag 9: %v %q", err, buf[:st.Count])
		}
		st, err = ep.Recv(p, buf, 0, 3, Bytes, w.Comm())
		if err != nil || string(buf[:st.Count]) != "tagged-3" {
			t.Errorf("tag 3: %v %q", err, buf[:st.Count])
		}
	})
	mustRun(t, e)
}

func TestWildcards(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 3)
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		comm := w.Comm()
		switch ep.Rank() {
		case 1:
			ep.Send(p, []byte("from1"), 0, 11, Bytes, comm)
		case 2:
			p.Sleep(time.Millisecond)
			ep.Send(p, []byte("from2"), 0, 22, Bytes, comm)
		case 0:
			buf := make([]byte, 16)
			st, err := ep.Recv(p, buf, AnySource, AnyTag, Bytes, comm)
			if err != nil {
				t.Errorf("recv any: %v", err)
			}
			if st.Source != 1 || st.Tag != 11 {
				t.Errorf("first wildcard match %+v, want rank 1 tag 11", st)
			}
			st, err = ep.Recv(p, buf, 2, AnyTag, Bytes, comm)
			if err != nil || st.Tag != 22 {
				t.Errorf("second recv: %v %+v", err, st)
			}
		}
	})
	mustRun(t, e)
}

func TestNonOvertaking(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	const n = 8
	var got []byte
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		if ep.Rank() == 0 {
			for i := 0; i < n; i++ {
				ep.Send(p, []byte{byte(i)}, 1, 4, Bytes, w.Comm())
			}
			return
		}
		buf := make([]byte, 1)
		for i := 0; i < n; i++ {
			if _, err := ep.Recv(p, buf, 0, 4, Bytes, w.Comm()); err != nil {
				t.Errorf("recv %d: %v", i, err)
			}
			got = append(got, buf[0])
		}
	})
	mustRun(t, e)
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("messages overtook: %v", got)
		}
	}
}

func TestTruncation(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		if ep.Rank() == 0 {
			ep.Send(p, make([]byte, 100), 1, 0, Bytes, w.Comm())
			return
		}
		small := make([]byte, 10)
		_, err := ep.Recv(p, small, 0, 0, Bytes, w.Comm())
		if !errors.Is(err, ErrTruncate) {
			t.Errorf("truncated recv: %v", err)
		}
	})
	mustRun(t, e)
}

func TestArgumentValidation(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		if ep.Rank() != 0 {
			return
		}
		comm := w.Comm()
		if _, err := ep.Isend(p, nil, 5, 0, Bytes, comm); !errors.Is(err, ErrRankRange) {
			t.Errorf("bad dest: %v", err)
		}
		if _, err := ep.Isend(p, nil, 1, -3, Bytes, comm); !errors.Is(err, ErrTagNegative) {
			t.Errorf("bad tag: %v", err)
		}
		if _, err := ep.Irecv(p, nil, 9, 0, Bytes, comm); !errors.Is(err, ErrRankRange) {
			t.Errorf("bad src: %v", err)
		}
		if _, err := ep.Irecv(p, nil, 0, -2, Bytes, comm); !errors.Is(err, ErrTagNegative) {
			t.Errorf("bad recv tag: %v", err)
		}
		if _, err := ep.Isend(p, nil, 1, 0, CLMem, comm); !errors.Is(err, ErrNoCLMemHook) {
			t.Errorf("CLMem without hook: %v", err)
		}
	})
	mustRun(t, e)
}

func TestSendrecvRing(t *testing.T) {
	const n = 5
	e, w := rig(t, cluster.RICC(), n)
	results := make([]byte, n)
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		me := ep.Rank()
		right := (me + 1) % n
		left := (me - 1 + n) % n
		out := []byte{byte(me)}
		in := make([]byte, 1)
		if _, err := ep.Sendrecv(p, out, right, 1, in, left, 1, w.Comm()); err != nil {
			t.Errorf("rank %d sendrecv: %v", me, err)
		}
		results[me] = in[0]
	})
	mustRun(t, e)
	for me := 0; me < n; me++ {
		want := byte((me - 1 + n) % n)
		if results[me] != want {
			t.Fatalf("rank %d got %d, want %d", me, results[me], want)
		}
	}
}

func TestLargeMessageTiming(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	const size = 10 << 20
	sys := cluster.RICC()
	want := sys.NIC.MsgOverhead +
		time.Duration(float64(size)/sys.NIC.BW*1e9) +
		sys.NIC.WireLatency
	var recvDone sim.Time
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		buf := make([]byte, size)
		if ep.Rank() == 0 {
			ep.Send(p, buf, 1, 0, Bytes, w.Comm())
		} else {
			ep.Recv(p, buf, 0, 0, Bytes, w.Comm())
			recvDone = p.Now()
		}
	})
	mustRun(t, e)
	if recvDone != sim.Time(want) {
		t.Fatalf("10 MiB delivered at %v, want %v", recvDone, want)
	}
}

func TestNICContention(t *testing.T) {
	// Two senders to one receiver share its RX: total time is the sum of
	// the serialization times, not the max.
	e, w := rig(t, cluster.RICC(), 3)
	const size = 10 << 20
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		buf := make([]byte, size)
		switch ep.Rank() {
		case 1, 2:
			ep.Send(p, buf, 0, ep.Rank(), Bytes, w.Comm())
		case 0:
			r1, _ := ep.Irecv(p, make([]byte, size), 1, 1, Bytes, w.Comm())
			r2, _ := ep.Irecv(p, make([]byte, size), 2, 2, Bytes, w.Comm())
			Waitall(p, r1, r2)
		}
	})
	mustRun(t, e)
	ser := time.Duration(float64(size) / cluster.RICC().NIC.BW * 1e9)
	if e.Now() < sim.Time(2*ser) {
		t.Fatalf("two inbound 10 MiB messages finished at %v; RX contention lost (2×ser = %v)", e.Now(), 2*ser)
	}
}

func TestParallelDisjointPairs(t *testing.T) {
	// 0→1 and 2→3 share nothing and must overlap fully.
	e, w := rig(t, cluster.RICC(), 4)
	const size = 10 << 20
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		buf := make([]byte, size)
		switch ep.Rank() {
		case 0:
			ep.Send(p, buf, 1, 0, Bytes, w.Comm())
		case 2:
			ep.Send(p, buf, 3, 0, Bytes, w.Comm())
		case 1:
			ep.Recv(p, buf, 0, 0, Bytes, w.Comm())
		case 3:
			ep.Recv(p, buf, 2, 0, Bytes, w.Comm())
		}
	})
	mustRun(t, e)
	sys := cluster.RICC()
	want := sys.NIC.MsgOverhead + time.Duration(float64(size)/sys.NIC.BW*1e9) + sys.NIC.WireLatency
	if e.Now() != sim.Time(want) {
		t.Fatalf("disjoint pairs finished at %v, want %v (full overlap)", e.Now(), want)
	}
}

func TestRequestTest(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		if ep.Rank() == 0 {
			p.Sleep(time.Millisecond)
			ep.Send(p, []byte{1}, 1, 0, Bytes, w.Comm())
			return
		}
		req, _ := ep.Irecv(p, make([]byte, 1), 0, 0, Bytes, w.Comm())
		if done, _, _ := req.Test(); done {
			t.Error("Test true before message sent")
		}
		if _, err := req.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		done, st, err := req.Test()
		if !done || err != nil || st.Source != 0 {
			t.Errorf("Test after completion: %v %+v %v", done, st, err)
		}
	})
	mustRun(t, e)
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			e, w := rig(t, cluster.RICC(), n)
			var lastEnter, firstLeave sim.Time
			w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
				p.Sleep(time.Duration(ep.Rank()) * time.Millisecond)
				if p.Now() > lastEnter {
					lastEnter = p.Now()
				}
				if err := ep.Barrier(p, w.Comm()); err != nil {
					t.Errorf("barrier: %v", err)
				}
				if firstLeave == 0 || p.Now() < firstLeave {
					firstLeave = p.Now()
				}
			})
			mustRun(t, e)
			if firstLeave < lastEnter {
				t.Fatalf("rank left barrier at %v before last entered at %v", firstLeave, lastEnter)
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, size := range []int{10, EagerThreshold + 5} {
			for _, root := range []int{0, n - 1} {
				n, size, root := n, size, root
				t.Run(fmt.Sprintf("n=%d/size=%d/root=%d", n, size, root), func(t *testing.T) {
					e, w := rig(t, cluster.RICC(), n)
					bufs := make([][]byte, n)
					w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
						buf := make([]byte, size)
						if ep.Rank() == root {
							for i := range buf {
								buf[i] = byte(i*3 + 1)
							}
						}
						if err := ep.Bcast(p, buf, root, w.Comm()); err != nil {
							t.Errorf("rank %d bcast: %v", ep.Rank(), err)
						}
						bufs[ep.Rank()] = buf
					})
					mustRun(t, e)
					for r := 0; r < n; r++ {
						if !bytes.Equal(bufs[r], bufs[root]) {
							t.Fatalf("rank %d bcast data differs", r)
						}
					}
				})
			}
		}
	}
}

func TestGather(t *testing.T) {
	const n = 5
	e, w := rig(t, cluster.RICC(), n)
	var out []byte
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		contrib := bytes.Repeat([]byte{byte(ep.Rank() + 1)}, 4)
		if ep.Rank() == 2 {
			out = make([]byte, 4*n)
			if err := ep.Gather(p, contrib, out, 2, w.Comm()); err != nil {
				t.Errorf("gather: %v", err)
			}
		} else if err := ep.Gather(p, contrib, nil, 2, w.Comm()); err != nil {
			t.Errorf("gather rank %d: %v", ep.Rank(), err)
		}
	})
	mustRun(t, e)
	for r := 0; r < n; r++ {
		for i := 0; i < 4; i++ {
			if out[r*4+i] != byte(r+1) {
				t.Fatalf("gather slot %d = %v", r, out[r*4:r*4+4])
			}
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			e, w := rig(t, cluster.RICC(), n)
			want := float64(n*(n+1)) / 2
			w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
				got, err := ep.AllreduceSum(p, float64(ep.Rank()+1), w.Comm())
				if err != nil {
					t.Errorf("allreduce: %v", err)
				}
				if got != want {
					t.Errorf("rank %d sum = %v, want %v", ep.Rank(), got, want)
				}
			})
			mustRun(t, e)
		})
	}
}

func TestCommIsolation(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 2)
	other := w.Comm().Dup("other")
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		if ep.Rank() == 0 {
			// Same tag on two communicators; receiver distinguishes them.
			ep.Send(p, []byte("world"), 1, 0, Bytes, w.Comm())
			ep.Send(p, []byte("other"), 1, 0, Bytes, other)
			return
		}
		buf := make([]byte, 8)
		st, err := ep.Recv(p, buf, 0, 0, Bytes, other)
		if err != nil || string(buf[:st.Count]) != "other" {
			t.Errorf("other comm: %v %q", err, buf[:st.Count])
		}
		st, err = ep.Recv(p, buf, 0, 0, Bytes, w.Comm())
		if err != nil || string(buf[:st.Count]) != "world" {
			t.Errorf("world comm: %v %q", err, buf[:st.Count])
		}
	})
	mustRun(t, e)
}

func TestThreadMultiple(t *testing.T) {
	// Two processes of the same rank drive MPI concurrently — the pattern
	// the clMPI runtime depends on (§V-A).
	e, w := rig(t, cluster.RICC(), 2)
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		if ep.Rank() == 0 {
			done := sim.NewWaitGroup(e, "threads")
			done.Add(2)
			p.Spawn("helper", func(hp *sim.Proc) {
				defer done.Done()
				if err := ep.Send(hp, []byte("helper"), 1, 1, Bytes, w.Comm()); err != nil {
					t.Errorf("helper send: %v", err)
				}
			})
			p.Spawn("main-thread", func(mp *sim.Proc) {
				defer done.Done()
				if err := ep.Send(mp, []byte("mainth"), 1, 2, Bytes, w.Comm()); err != nil {
					t.Errorf("main send: %v", err)
				}
			})
			done.Wait(p)
			return
		}
		buf := make([]byte, 8)
		st, err := ep.Recv(p, buf, 0, 2, Bytes, w.Comm())
		if err != nil || string(buf[:st.Count]) != "mainth" {
			t.Errorf("tag2: %v %q", err, buf[:st.Count])
		}
		st, err = ep.Recv(p, buf, 0, 1, Bytes, w.Comm())
		if err != nil || string(buf[:st.Count]) != "helper" {
			t.Errorf("tag1: %v %q", err, buf[:st.Count])
		}
	})
	mustRun(t, e)
}

func TestUserRequest(t *testing.T) {
	e, w := rig(t, cluster.RICC(), 1)
	req, complete := NewUserRequest(w, "custom")
	w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
		p.Spawn("completer", func(cp *sim.Proc) {
			cp.Sleep(3 * time.Millisecond)
			complete(Status{Source: 9, Count: 42}, nil)
		})
		st, err := req.Wait(p)
		if err != nil || st.Source != 9 || st.Count != 42 {
			t.Errorf("user request: %v %+v", err, st)
		}
		if p.Now() != sim.Time(3*time.Millisecond) {
			t.Errorf("completed at %v", p.Now())
		}
	})
	mustRun(t, e)
}

// TestBackplaneOversubscription: with a switch that carries only two
// full-rate paths, four disjoint simultaneous transfers take twice as long
// as they would on a non-blocking fabric.
func TestBackplaneOversubscription(t *testing.T) {
	run := func(backplane float64) sim.Time {
		sys := cluster.RICC()
		sys.NIC.Backplane = backplane
		e := sim.NewEngine()
		w := NewWorld(cluster.New(e, sys, 8))
		const size = 10 << 20
		w.LaunchRanks("t", func(p *sim.Proc, ep *Endpoint) {
			buf := make([]byte, size)
			if ep.Rank()%2 == 0 {
				ep.Send(p, buf, ep.Rank()+1, 0, Bytes, w.Comm())
			} else {
				ep.Recv(p, buf, ep.Rank()-1, 0, Bytes, w.Comm())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	full := run(0)                         // non-blocking
	half := run(2 * cluster.RICC().NIC.BW) // 2 paths for 4 transfers
	if half < 2*full-sim.Time(time.Millisecond) {
		t.Fatalf("oversubscribed fabric too fast: %v vs non-blocking %v", half, full)
	}
	wide := run(16 * cluster.RICC().NIC.BW) // more paths than transfers
	if wide != full {
		t.Fatalf("generous backplane changed timing: %v vs %v", wide, full)
	}
}

package clmpi

import (
	"fmt"
	"testing"

	"repro/internal/bytepool"
	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Equivalence gate for the xfer refactor: the staged-pipeline engine must
// reproduce the pre-refactor implementations' simulation output byte for
// byte — every link occupancy event (link name, bytes, start and end
// virtual timestamps) and the final engine time — on both preset systems.
// The legacy implementations are preserved verbatim below as the reference;
// each scenario runs twice, once per implementation, and the two event
// streams are compared exactly.

// legacyWindow mirrors the pre-refactor chunkWindow type.
type legacyWindow struct {
	off int64
	n   int64
}

func legacyWindows(pl transferPlan, offset int64) []legacyWindow {
	out := make([]legacyWindow, 0, len(pl.chunks))
	off := offset
	for _, c := range pl.chunks {
		out = append(out, legacyWindow{off: off, n: c})
		off += c
	}
	return out
}

// legacyRunSend is the pre-refactor Runtime.runSend, verbatim.
func legacyRunSend(rt *Runtime, wp *sim.Proc, buf *cl.Buffer, offset, size int64, dest, tag int, comm *mpi.Comm) error {
	node := rt.ep.Node()
	g := node.Sys.GPU
	pl := rt.fab.plan(size, node.Sys)
	data := buf.Bytes()
	switch pl.strategy {
	case Pinned:
		wp.Sleep(g.PinSetup)
		rt.ctx.Device.DeviceToHost(wp, size, cluster.Pinned)
		return rt.ep.Send(wp, data[offset:offset+size], dest, tag, wireDatatype, comm)
	case Mapped:
		wp.Sleep(g.MapSetup)
		rt.ctx.Device.DeviceToHost(wp, size, cluster.Mapped)
		err := rt.ep.Send(wp, data[offset:offset+size], dest, tag, wireDatatype, comm)
		wp.Sleep(g.MapSetup)
		return err
	case Pipelined:
		eng := wp.Engine()
		ring := sim.NewSemaphore(eng, "clmpi.sendring", rt.fab.opts.RingBuffers)
		staged := sim.NewQueue[legacyWindow](eng, "clmpi.staged")
		wins := legacyWindows(pl, offset)
		eng.SpawnDaemon(fmt.Sprintf("clmpi.d2h.rank%d", rt.ep.Rank()), func(rp *sim.Proc) {
			for _, w := range wins {
				ring.Acquire(rp, 1)
				rt.ctx.Device.DeviceToHost(rp, w.n, cluster.Pinned)
				staged.Put(w)
			}
		})
		for range wins {
			w, _ := staged.Get(wp)
			if err := rt.ep.Send(wp, data[w.off:w.off+w.n], dest, tag, wireDatatype, comm); err != nil {
				return err
			}
			ring.Release(wp, 1)
		}
		return nil
	default:
		return fmt.Errorf("clmpi: unresolved strategy %v", pl.strategy)
	}
}

// legacyRunRecv is the pre-refactor Runtime.runRecv, verbatim.
func legacyRunRecv(rt *Runtime, wp *sim.Proc, buf *cl.Buffer, offset, size int64, src, tag int, comm *mpi.Comm) error {
	node := rt.ep.Node()
	g := node.Sys.GPU
	pl := rt.fab.plan(size, node.Sys)
	data := buf.Bytes()
	switch pl.strategy {
	case Pinned:
		wp.Sleep(g.PinSetup)
		if _, err := rt.ep.Recv(wp, data[offset:offset+size], src, tag, wireDatatype, comm); err != nil {
			return err
		}
		rt.ctx.Device.HostToDevice(wp, size, cluster.Pinned)
		return nil
	case Mapped:
		wp.Sleep(g.MapSetup)
		if _, err := rt.ep.Recv(wp, data[offset:offset+size], src, tag, wireDatatype, comm); err != nil {
			return err
		}
		wp.Sleep(g.MapSetup)
		rt.ctx.Device.HostToDevice(wp, size, cluster.Mapped)
		return nil
	case Pipelined:
		eng := wp.Engine()
		ring := sim.NewSemaphore(eng, "clmpi.recvring", rt.fab.opts.RingBuffers)
		arrived := sim.NewQueue[legacyWindow](eng, "clmpi.arrived")
		done := sim.NewWaitGroup(eng, "clmpi.h2d")
		wins := legacyWindows(pl, offset)
		done.Add(len(wins))
		eng.SpawnDaemon(fmt.Sprintf("clmpi.h2d.rank%d", rt.ep.Rank()), func(hp *sim.Proc) {
			for range wins {
				w, _ := arrived.Get(hp)
				rt.ctx.Device.HostToDevice(hp, w.n, cluster.Pinned)
				ring.Release(hp, 1)
				done.Done()
			}
		})
		actualSrc := src
		for _, w := range wins {
			ring.Acquire(wp, 1)
			st, err := rt.ep.Recv(wp, data[w.off:w.off+w.n], actualSrc, tag, wireDatatype, comm)
			if err != nil {
				return err
			}
			actualSrc = st.Source
			arrived.Put(w)
		}
		done.Wait(wp)
		return nil
	default:
		return fmt.Errorf("clmpi: unresolved strategy %v", pl.strategy)
	}
}

// legacyRunFileWrite is the pre-refactor Runtime.runFileWrite, verbatim.
func legacyRunFileWrite(rt *Runtime, wp *sim.Proc, buf *cl.Buffer, offset, size int64, path string, fileOffset int64) error {
	node := rt.ep.Node()
	eng := wp.Engine()
	chunks := rt.fileChunks(size)
	ring := sim.NewSemaphore(eng, "clmpi.fwring", rt.fab.opts.RingBuffers)
	staged := sim.NewQueue[legacyWindow](eng, "clmpi.fwstaged")
	off := offset
	wins := make([]legacyWindow, 0, len(chunks))
	for _, c := range chunks {
		wins = append(wins, legacyWindow{off: off, n: c})
		off += c
	}
	eng.SpawnDaemon(fmt.Sprintf("clmpi.fw.d2h.rank%d", rt.ep.Rank()), func(rp *sim.Proc) {
		for _, w := range wins {
			ring.Acquire(rp, 1)
			rt.ctx.Device.DeviceToHost(rp, w.n, cluster.Pinned)
			staged.Put(w)
		}
	})
	data := buf.Bytes()
	for range wins {
		w, _ := staged.Get(wp)
		fo := fileOffset + (w.off - offset)
		if err := node.Disk.WriteAt(wp, path, fo, data[w.off:w.off+w.n]); err != nil {
			return err
		}
		ring.Release(wp, 1)
	}
	return nil
}

// legacyRunFileRead is the pre-refactor Runtime.runFileRead, verbatim.
func legacyRunFileRead(rt *Runtime, wp *sim.Proc, buf *cl.Buffer, offset, size int64, path string, fileOffset int64) error {
	node := rt.ep.Node()
	eng := wp.Engine()
	chunks := rt.fileChunks(size)
	ring := sim.NewSemaphore(eng, "clmpi.frring", rt.fab.opts.RingBuffers)
	arrived := sim.NewQueue[legacyWindow](eng, "clmpi.frarrived")
	done := sim.NewWaitGroup(eng, "clmpi.fr.h2d")
	off := offset
	wins := make([]legacyWindow, 0, len(chunks))
	for _, c := range chunks {
		wins = append(wins, legacyWindow{off: off, n: c})
		off += c
	}
	done.Add(len(wins))
	eng.SpawnDaemon(fmt.Sprintf("clmpi.fr.h2d.rank%d", rt.ep.Rank()), func(hp *sim.Proc) {
		for range wins {
			w, _ := arrived.Get(hp)
			rt.ctx.Device.HostToDevice(hp, w.n, cluster.Pinned)
			ring.Release(hp, 1)
			done.Done()
		}
	})
	data := buf.Bytes()
	for _, w := range wins {
		ring.Acquire(wp, 1)
		fo := fileOffset + (w.off - offset)
		if err := node.Disk.ReadAt(wp, path, fo, data[w.off:w.off+w.n]); err != nil {
			return err
		}
		arrived.Put(w)
	}
	done.Wait(wp)
	return nil
}

// legacyIsendCLMem is the pre-refactor Fabric.IsendCLMem, verbatim.
func legacyIsendCLMem(f *Fabric, p *sim.Proc, ep *mpi.Endpoint, buf []byte, dest, tag int, comm *mpi.Comm) (*mpi.Request, error) {
	pl := f.plan(int64(len(buf)), ep.Node().Sys)
	req, complete := mpi.NewUserRequest(ep.World(), fmt.Sprintf("isend(CL_MEM) %d->%d tag %d", ep.Rank(), dest, tag))
	p.Spawn(fmt.Sprintf("clmem.send.rank%d", ep.Rank()), func(sp *sim.Proc) {
		var off int64
		for _, c := range pl.chunks {
			if err := ep.Send(sp, buf[off:off+c], dest, tag, mpi.Bytes, comm); err != nil {
				complete(mpi.Status{}, err)
				return
			}
			off += c
		}
		complete(mpi.Status{}, nil)
	})
	return req, nil
}

// legacyIrecvCLMem is the pre-refactor Fabric.IrecvCLMem, verbatim.
func legacyIrecvCLMem(f *Fabric, p *sim.Proc, ep *mpi.Endpoint, buf []byte, src, tag int, comm *mpi.Comm) (*mpi.Request, error) {
	pl := f.plan(int64(len(buf)), ep.Node().Sys)
	req, complete := mpi.NewUserRequest(ep.World(), fmt.Sprintf("irecv(CL_MEM) %d<-%d tag %d", ep.Rank(), src, tag))
	p.Spawn(fmt.Sprintf("clmem.recv.rank%d", ep.Rank()), func(rp *sim.Proc) {
		var off int64
		actualSrc := src
		for _, c := range pl.chunks {
			st, err := ep.Recv(rp, buf[off:off+c], actualSrc, tag, mpi.Bytes, comm)
			if err != nil {
				complete(mpi.Status{}, err)
				return
			}
			actualSrc = st.Source
			off += c
		}
		complete(mpi.Status{Source: actualSrc, Tag: tag, Count: int(off)}, nil)
	})
	return req, nil
}

// linkEvent is one captured link occupancy interval.
type linkEvent struct {
	link       string
	bytes      int64
	start, end sim.Time
}

// linkLog records every link occupancy of a run, in engine order.
type linkLog struct{ evs []linkEvent }

func (l *linkLog) LinkBusy(link, _, _ string, bytes int64, start, end sim.Time) {
	l.evs = append(l.evs, linkEvent{link, bytes, start, end})
}

// equivRun is everything a scenario produced that must match exactly.
type equivRun struct {
	events  []linkEvent
	end     sim.Time
	payload []byte
}

// compareRuns fails the test on the first divergence between two runs.
func compareRuns(t *testing.T, name string, legacy, refactored equivRun) {
	t.Helper()
	if legacy.end != refactored.end {
		t.Errorf("%s: end time legacy=%v refactored=%v", name, legacy.end, refactored.end)
	}
	if len(legacy.events) != len(refactored.events) {
		t.Fatalf("%s: event count legacy=%d refactored=%d", name, len(legacy.events), len(refactored.events))
	}
	for i := range legacy.events {
		if legacy.events[i] != refactored.events[i] {
			t.Fatalf("%s: event %d diverged\n  legacy:     %+v\n  refactored: %+v",
				name, i, legacy.events[i], refactored.events[i])
		}
	}
	if string(legacy.payload) != string(refactored.payload) {
		t.Errorf("%s: payloads differ", name)
	}
}

// equivPattern fills a deterministic payload.
func equivPattern(n int64, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// p2pScenario runs one device→device transfer of size bytes at the given
// buffer offset and returns everything observable.
func p2pScenario(t *testing.T, sys cluster.System, opts Options, bufSize, offset, size int64, useLegacy bool) equivRun {
	t.Helper()
	eng := sim.NewEngine()
	clus := cluster.New(eng, sys, 2)
	log := &linkLog{}
	clus.Observe(log)
	world := mpi.NewWorld(clus)
	fab := New(world, opts)
	var payload []byte
	world.LaunchRanks("equiv", func(p *sim.Proc, ep *mpi.Endpoint) {
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), fmt.Sprintf("eq%d", ep.Rank()))
		rt := fab.Attach(ctx, ep)
		buf := ctx.MustCreateBuffer("b", bufSize)
		defer buf.Release()
		if ep.Rank() == 0 {
			copy(buf.Bytes()[offset:], equivPattern(size, 0x11))
			var err error
			if useLegacy {
				err = legacyRunSend(rt, p, buf, offset, size, 1, 7, world.Comm())
			} else {
				err = rt.runSend(p, buf, offset, size, 1, 7, world.Comm())
			}
			if err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			var err error
			if useLegacy {
				err = legacyRunRecv(rt, p, buf, offset, size, 0, 7, world.Comm())
			} else {
				err = rt.runRecv(p, buf, offset, size, 0, 7, world.Comm())
			}
			if err != nil {
				t.Errorf("recv: %v", err)
			}
			payload = append([]byte(nil), buf.Bytes()[offset:offset+size]...)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	return equivRun{events: log.evs, end: eng.Now(), payload: payload}
}

// TestXferEquivalenceP2P is the refactor gate: identical link event streams
// and end times for every strategy on both preset systems, across message
// sizes including zero bytes, sub-block, multi-block with remainder, and an
// offset window ending exactly at the buffer boundary.
func TestXferEquivalenceP2P(t *testing.T) {
	type sizeCase struct {
		bufSize, offset, size int64
	}
	sizes := []sizeCase{
		{1 << 20, 0, 0},                          // zero-byte envelope
		{1 << 20, 0, 1},                          // minimal payload
		{1 << 20, 0, 64 << 10},                   // sub-block
		{4 << 20, 0, 3 << 20},                    // multi-block, exact blocks
		{4 << 20, 1<<20 + 13, 3<<20 - 13 - 4096}, // odd offset, remainder chunk
		{4 << 20, 4<<20 - 96<<10, 96 << 10},      // window ends at buffer end
	}
	for _, sys := range []cluster.System{cluster.Cichlid(), cluster.RICC()} {
		for _, st := range []Strategy{Pinned, Mapped, Pipelined, Auto} {
			for _, sc := range sizes {
				name := fmt.Sprintf("%s/%s/size%d@%d", sys.Name, st, sc.size, sc.offset)
				opts := Options{Strategy: st}
				legacy := p2pScenario(t, sys, opts, sc.bufSize, sc.offset, sc.size, true)
				refactored := p2pScenario(t, sys, opts, sc.bufSize, sc.offset, sc.size, false)
				compareRuns(t, name, legacy, refactored)
			}
		}
	}
}

// fileScenario writes a device buffer window to disk and reads it back into
// a second buffer.
func fileScenario(t *testing.T, sys cluster.System, opts Options, bufSize, offset, size int64, useLegacy bool) equivRun {
	t.Helper()
	eng := sim.NewEngine()
	clus := cluster.New(eng, sys, 1)
	log := &linkLog{}
	clus.Observe(log)
	world := mpi.NewWorld(clus)
	fab := New(world, opts)
	var payload []byte
	world.LaunchRanks("fequiv", func(p *sim.Proc, ep *mpi.Endpoint) {
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), "feq")
		rt := fab.Attach(ctx, ep)
		src := ctx.MustCreateBuffer("src", bufSize)
		dst := ctx.MustCreateBuffer("dst", bufSize)
		defer src.Release()
		defer dst.Release()
		copy(src.Bytes()[offset:], equivPattern(size, 0x3B))
		const fileOff = 512
		if useLegacy {
			if err := legacyRunFileWrite(rt, p, src, offset, size, "ckpt", fileOff); err != nil {
				t.Errorf("write: %v", err)
			}
			if err := legacyRunFileRead(rt, p, dst, offset, size, "ckpt", fileOff); err != nil {
				t.Errorf("read: %v", err)
			}
		} else {
			if err := rt.runFileWrite(p, src, offset, size, "ckpt", fileOff); err != nil {
				t.Errorf("write: %v", err)
			}
			if err := rt.runFileRead(p, dst, offset, size, "ckpt", fileOff); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		payload = append([]byte(nil), dst.Bytes()[offset:offset+size]...)
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	return equivRun{events: log.evs, end: eng.Now(), payload: payload}
}

// TestXferEquivalenceFileIO gates the file I/O staging paths.
func TestXferEquivalenceFileIO(t *testing.T) {
	type sizeCase struct {
		bufSize, offset, size int64
	}
	sizes := []sizeCase{
		{1 << 20, 0, 0},
		{32 << 20, 4096, 9<<20 + 777},       // multi-block with remainder
		{16 << 20, 16<<20 - 5<<20, 5 << 20}, // window ends at buffer end
	}
	for _, sys := range []cluster.System{cluster.Cichlid(), cluster.RICC()} {
		for _, sc := range sizes {
			name := fmt.Sprintf("%s/file/size%d@%d", sys.Name, sc.size, sc.offset)
			legacy := fileScenario(t, sys, Options{}, sc.bufSize, sc.offset, sc.size, true)
			refactored := fileScenario(t, sys, Options{}, sc.bufSize, sc.offset, sc.size, false)
			compareRuns(t, name, legacy, refactored)
		}
	}
}

// clmemScenario exchanges host↔device in both directions through the CLMem
// hook: rank 0's host buffer goes to rank 1's device buffer, then rank 1's
// device buffer comes back to a second host buffer on rank 0.
func clmemScenario(t *testing.T, sys cluster.System, opts Options, size int64, useLegacy bool) equivRun {
	t.Helper()
	eng := sim.NewEngine()
	clus := cluster.New(eng, sys, 2)
	log := &linkLog{}
	clus.Observe(log)
	world := mpi.NewWorld(clus)
	fab := New(world, opts)
	var payload []byte
	world.LaunchRanks("cequiv", func(p *sim.Proc, ep *mpi.Endpoint) {
		if ep.Rank() == 0 {
			out := equivPattern(size, 0x77)
			back := make([]byte, size)
			var sreq, rreq *mpi.Request
			var err error
			if useLegacy {
				sreq, err = legacyIsendCLMem(fab, p, ep, out, 1, 3, world.Comm())
			} else {
				sreq, err = fab.IsendCLMem(p, ep, bytepool.Host(out), 1, 3, world.Comm())
			}
			if err != nil {
				t.Errorf("isend: %v", err)
				return
			}
			if _, err := sreq.Wait(p); err != nil {
				t.Errorf("isend wait: %v", err)
			}
			if useLegacy {
				rreq, err = legacyIrecvCLMem(fab, p, ep, back, mpi.AnySource, 4, world.Comm())
			} else {
				rreq, err = fab.IrecvCLMem(p, ep, bytepool.Host(back), mpi.AnySource, 4, world.Comm())
			}
			if err != nil {
				t.Errorf("irecv: %v", err)
				return
			}
			st, err := rreq.Wait(p)
			if err != nil {
				t.Errorf("irecv wait: %v", err)
			}
			if st.Source != 1 || st.Count != int(size) {
				t.Errorf("irecv status = %+v", st)
			}
			payload = back
		} else {
			ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), "ceq")
			rt := fab.Attach(ctx, ep)
			buf := ctx.MustCreateBuffer("b", size+1)
			defer buf.Release()
			var err error
			if useLegacy {
				err = legacyRunRecv(rt, p, buf, 0, size, 0, 3, world.Comm())
			} else {
				err = rt.runRecv(p, buf, 0, size, 0, 3, world.Comm())
			}
			if err != nil {
				t.Errorf("device recv: %v", err)
			}
			if useLegacy {
				err = legacyRunSend(rt, p, buf, 0, size, 0, 4, world.Comm())
			} else {
				err = rt.runSend(p, buf, 0, size, 0, 4, world.Comm())
			}
			if err != nil {
				t.Errorf("device send: %v", err)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	return equivRun{events: log.evs, end: eng.Now(), payload: payload}
}

// TestXferEquivalenceCLMem gates the CLMem hook's host-side loops.
func TestXferEquivalenceCLMem(t *testing.T) {
	for _, sys := range []cluster.System{cluster.Cichlid(), cluster.RICC()} {
		for _, size := range []int64{0, 64 << 10, 3<<20 + 999} {
			name := fmt.Sprintf("%s/clmem/size%d", sys.Name, size)
			legacy := clmemScenario(t, sys, Options{}, size, true)
			refactored := clmemScenario(t, sys, Options{}, size, false)
			compareRuns(t, name, legacy, refactored)
		}
	}
}

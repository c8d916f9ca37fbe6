package clmpi

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/storage"
)

func TestFileWriteReadRoundtrip(t *testing.T) {
	const size = 10 << 20
	r := newRig(t, cluster.RICC(), 1, Options{})
	want := pattern(size, 3)
	var got []byte
	r.run(t, func(p *sim.Proc, rank int) {
		q := r.ctxs[0].NewQueue("q")
		src := r.ctxs[0].MustCreateBuffer("src", size)
		dst := r.ctxs[0].MustCreateBuffer("dst", size)
		copy(src.Bytes(), want)
		if _, err := r.rts[0].EnqueueWriteBufferToFile(p, q, src, true, 0, size, "chk/p.bin", 0, nil); err != nil {
			t.Fatalf("fwrite: %v", err)
		}
		if _, err := r.rts[0].EnqueueReadBufferFromFile(p, q, dst, true, 0, size, "chk/p.bin", 0, nil); err != nil {
			t.Fatalf("fread: %v", err)
		}
		got = append([]byte(nil), dst.Bytes()...)
	})
	if !bytes.Equal(got, want) {
		t.Fatal("file roundtrip corrupted data")
	}
}

func TestFileWritePipelinesAgainstDisk(t *testing.T) {
	// The command must approach max(PCIe, disk) + one block, far below the
	// serial sum (disk is the slow hop at 150 MB/s).
	const size = 64 << 20
	sys := cluster.RICC()
	r := newRig(t, sys, 1, Options{PipelineBlock: 8 << 20})
	var elapsed time.Duration
	r.run(t, func(p *sim.Proc, rank int) {
		q := r.ctxs[0].NewQueue("q")
		buf := r.ctxs[0].MustCreateBuffer("b", size)
		start := p.Now()
		if _, err := r.rts[0].EnqueueWriteBufferToFile(p, q, buf, true, 0, size, "big", 0, nil); err != nil {
			t.Fatalf("fwrite: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	diskTime := time.Duration(float64(size) / sys.Disk.BW * 1e9)
	pcieTime := time.Duration(float64(size) / sys.GPU.PinnedBW * 1e9)
	serialSum := diskTime + pcieTime + 16*sys.Disk.Seek
	if elapsed >= serialSum {
		t.Fatalf("no overlap: %v >= serial %v", elapsed, serialSum)
	}
	if elapsed < diskTime {
		t.Fatalf("impossible: %v below the disk's own time %v", elapsed, diskTime)
	}
}

func TestFileCommandsRespectWaitLists(t *testing.T) {
	r := newRig(t, cluster.RICC(), 1, Options{})
	kernelTime := 5 * time.Millisecond
	var writeStart sim.Time
	r.run(t, func(p *sim.Proc, rank int) {
		qc := r.ctxs[0].NewQueue("qc")
		qio := r.ctxs[0].NewQueue("qio")
		buf := r.ctxs[0].MustCreateBuffer("b", 1024)
		k := &cl.Kernel{Name: "produce", Cost: func([]any) time.Duration { return kernelTime }}
		kev, _ := qc.EnqueueNDRangeKernel(k, nil, nil)
		wev, err := r.rts[0].EnqueueWriteBufferToFile(p, qio, buf, false, 0, 1024, "f", 0, []*cl.Event{kev})
		if err != nil {
			t.Fatalf("fwrite: %v", err)
		}
		if err := wev.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		writeStart = wev.StartedAt
	})
	if writeStart < sim.Time(kernelTime) {
		t.Fatalf("file write started at %v, before its producing kernel finished", writeStart)
	}
}

func TestFileReadMissingFails(t *testing.T) {
	r := newRig(t, cluster.RICC(), 1, Options{})
	r.run(t, func(p *sim.Proc, rank int) {
		q := r.ctxs[0].NewQueue("q")
		buf := r.ctxs[0].MustCreateBuffer("b", 64)
		_, err := r.rts[0].EnqueueReadBufferFromFile(p, q, buf, true, 0, 64, "does-not-exist", 0, nil)
		if !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("missing file: %v", err)
		}
		// Finish reports the failed command once; the queue stays usable.
		if err := q.Finish(p); !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("finish after failure: %v", err)
		}
		if _, err := q.EnqueueMarker(nil); err != nil {
			t.Errorf("enqueue after failure: %v", err)
		}
		if err := q.Finish(p); err != nil {
			t.Errorf("finish after reported failure: %v", err)
		}
	})
}

func TestFileWindowValidation(t *testing.T) {
	r := newRig(t, cluster.RICC(), 1, Options{})
	r.run(t, func(p *sim.Proc, rank int) {
		q := r.ctxs[0].NewQueue("q")
		buf := r.ctxs[0].MustCreateBuffer("b", 64)
		if _, err := r.rts[0].EnqueueWriteBufferToFile(p, q, buf, false, 0, 128, "f", 0, nil); !errors.Is(err, cl.ErrInvalidValue) {
			t.Errorf("oversize window: %v", err)
		}
		if _, err := r.rts[0].EnqueueWriteBufferToFile(p, q, buf, false, 0, 32, "f", -1, nil); !errors.Is(err, cl.ErrInvalidValue) {
			t.Errorf("negative file offset: %v", err)
		}
	})
}

// TestCheckpointRestoreAcrossRuns exercises the checkpoint pattern: kernel →
// file write (gated) → overwrite → file read → verify, with segment offsets.
func TestCheckpointRestoreAcrossRuns(t *testing.T) {
	const seg = 256 << 10
	r := newRig(t, cluster.RICC(), 1, Options{})
	r.run(t, func(p *sim.Proc, rank int) {
		q := r.ctxs[0].NewQueue("q")
		buf := r.ctxs[0].MustCreateBuffer("b", 4*seg)
		for i := range buf.Bytes() {
			buf.Bytes()[i] = byte(i / seg)
		}
		// Write segments 1 and 3 at file offsets 0 and seg.
		if _, err := r.rts[0].EnqueueWriteBufferToFile(p, q, buf, true, 1*seg, seg, "ckpt", 0, nil); err != nil {
			t.Fatalf("seg1: %v", err)
		}
		if _, err := r.rts[0].EnqueueWriteBufferToFile(p, q, buf, true, 3*seg, seg, "ckpt", seg, nil); err != nil {
			t.Fatalf("seg3: %v", err)
		}
		// Clobber device memory, then restore both segments swapped.
		for i := range buf.Bytes() {
			buf.Bytes()[i] = 0xFF
		}
		if _, err := r.rts[0].EnqueueReadBufferFromFile(p, q, buf, true, 0, seg, "ckpt", seg, nil); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if buf.Bytes()[0] != 3 || buf.Bytes()[seg-1] != 3 {
			t.Errorf("restored segment wrong: %d", buf.Bytes()[0])
		}
		if buf.Bytes()[seg] != 0xFF {
			t.Errorf("restore wrote outside its window")
		}
	})
}

// TestIbcastGatesKernelViaEvent closes the §VI loop: a non-blocking
// collective's request becomes an OpenCL event that gates a kernel.
func TestIbcastGatesKernelViaEvent(t *testing.T) {
	const size = 4 << 20
	r := newRig(t, cluster.RICC(), 3, Options{})
	var kernelStart, bcastDone sim.Time
	r.run(t, func(p *sim.Proc, rank int) {
		ep := r.w.Endpoint(rank)
		host := make([]byte, size)
		req := ep.Ibcast(p, host, 0, r.w.Comm())
		ev := r.rts[rank].CreateEventFromMPIRequest(req)
		q := r.ctxs[rank].NewQueue("q")
		k := &cl.Kernel{Name: "consume", Cost: func([]any) time.Duration { return time.Millisecond }}
		kev, err := q.EnqueueNDRangeKernel(k, nil, []*cl.Event{ev})
		if err != nil {
			t.Fatalf("kernel: %v", err)
		}
		if err := kev.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
		if rank == 2 {
			kernelStart = kev.StartedAt
			bcastDone = ev.FinishedAt
		}
	})
	if kernelStart < bcastDone || bcastDone == 0 {
		t.Fatalf("kernel started %v before Ibcast completed %v", kernelStart, bcastDone)
	}
}

func TestCLMemDatatypeWithIbcastStyleDistribution(t *testing.T) {
	// Master pushes distinct slices to two workers with CLMem sends while
	// they post device receives — the §V-D pattern at miniature scale,
	// here to pin the multi-rank chunk-protocol agreement.
	const per = 5 << 20
	r := newRig(t, cluster.RICC(), 3, Options{})
	var got [3][]byte
	r.run(t, func(p *sim.Proc, rank int) {
		ep := r.w.Endpoint(rank)
		if rank == 0 {
			var reqs []*mpi.Request
			for w := 1; w <= 2; w++ {
				req, err := ep.Isend(p, pattern(per, byte(w)), w, 7, mpi.CLMem, r.w.Comm())
				if err != nil {
					t.Fatalf("isend: %v", err)
				}
				reqs = append(reqs, req)
			}
			if err := mpi.Waitall(p, reqs...); err != nil {
				t.Errorf("waitall: %v", err)
			}
			return
		}
		q := r.ctxs[rank].NewQueue("q")
		buf := r.ctxs[rank].MustCreateBuffer("b", per)
		if _, err := r.rts[rank].EnqueueRecvBuffer(p, q, buf, true, 0, per, 0, 7, r.w.Comm(), nil); err != nil {
			t.Errorf("recv: %v", err)
		}
		got[rank] = append([]byte(nil), buf.Bytes()...)
	})
	for w := 1; w <= 2; w++ {
		if !bytes.Equal(got[w], pattern(per, byte(w))) {
			t.Fatalf("worker %d got wrong slice", w)
		}
	}
}

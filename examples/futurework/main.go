// Future work, implemented: the two §VI extensions the paper sketches.
//
//  1. Non-blocking collectives synchronized through OpenCL events: an
//     MPI_Ibcast distributes data while a kernel runs, and a dependent
//     kernel is gated on the broadcast via clCreateEventFromMPIRequest.
//
//  2. File I/O as OpenCL commands: each rank checkpoints its device buffer
//     to node-local storage with clEnqueueWriteBufferToFile — ordered by an
//     event on the producing kernel, overlapping PCIe with the disk, with
//     the host thread free — then restores and verifies it.
//
//     go run ./examples/futurework
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro/internal/bytepool"
	"repro/internal/cl"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func main() {
	const size = 8 << 20
	eng := sim.NewEngine()
	clus := cluster.New(eng, cluster.RICC(), 3)
	world := mpi.NewWorld(clus)
	fab := clmpi.New(world, clmpi.Options{})

	world.LaunchRanks("future", func(p *sim.Proc, ep *mpi.Endpoint) {
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), fmt.Sprintf("ctx%d", ep.Rank()))
		rt := fab.Attach(ctx, ep)
		qc := ctx.NewQueue("compute")
		qio := ctx.NewQueue("io")

		// --- Part 1: Ibcast + event gating -------------------------------
		host := make([]byte, size)
		if ep.Rank() == 0 {
			for i := range host {
				host[i] = byte(i * 7)
			}
		}
		req := ep.Ibcast(p, host, 0, world.Comm())
		bev := rt.CreateEventFromMPIRequest(req)
		// A kernel that runs DURING the broadcast...
		busy := &cl.Kernel{Name: "overlap", Cost: func([]any) time.Duration { return 8 * time.Millisecond }}
		kev, err := qc.EnqueueNDRangeKernel(busy, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		// ...and a device upload gated on BOTH, with no host blocking.
		buf := ctx.MustCreateBuffer("state", size)
		wev, err := qc.EnqueueWriteBuffer(p, buf, false, 0, size, bytepool.Host(host), cluster.Pinned, []*cl.Event{bev, kev})
		if err != nil {
			log.Fatal(err)
		}
		if err := wev.Wait(p); err != nil {
			log.Fatal(err)
		}
		if ep.Rank() == 2 {
			fmt.Printf("rank 2: kernel done %v, Ibcast done %v, gated upload %v→%v\n",
				kev.FinishedAt, bev.FinishedAt, wev.StartedAt, wev.FinishedAt)
		}

		// --- Part 2: checkpoint to node-local disk as a command ----------
		stamp := &cl.Kernel{
			Name: "advance",
			Cost: func([]any) time.Duration { return 4 * time.Millisecond },
			Work: func([]any) error { buf.Bytes()[0] = 0x42; return nil },
		}
		sev, err := qc.EnqueueNDRangeKernel(stamp, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		ckptEv, err := rt.EnqueueWriteBufferToFile(p, qio, buf, false, 0, size, "ckpt/state.bin", 0, []*cl.Event{sev})
		if err != nil {
			log.Fatal(err)
		}
		if err := ckptEv.Wait(p); err != nil {
			log.Fatal(err)
		}
		snapshot := append([]byte(nil), buf.Bytes()...)

		// Clobber device memory, restore from the checkpoint, verify.
		for i := range buf.Bytes() {
			buf.Bytes()[i] = 0xEE
		}
		if _, err := rt.EnqueueReadBufferFromFile(p, qio, buf, true, 0, size, "ckpt/state.bin", 0, nil); err != nil {
			log.Fatal(err)
		}
		if ep.Rank() == 1 {
			fmt.Printf("rank 1: checkpoint %s (%d MiB) on %s, restored intact: %v\n",
				"ckpt/state.bin", size>>20, ep.Node().Sys.Disk.Model,
				bytes.Equal(buf.Bytes(), snapshot))
			fmt.Printf("rank 1: checkpoint command took %v (disk alone would take %v)\n",
				ckptEv.FinishedAt.Sub(ckptEv.StartedAt), ep.Node().Disk.TransferTime(size))
		}
	})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
}

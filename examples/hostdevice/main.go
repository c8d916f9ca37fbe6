// Host↔device interoperation: the paper's Figure 7. Rank 0's host thread
// receives data from rank 1's *device* with a plain MPI_Irecv carrying the
// MPI_CL_MEM datatype, runs a kernel during the transfer, and gates a
// device write on both the MPI request (via clCreateEventFromMPIRequest)
// and the kernel — with no blocking anywhere on the host.
//
//	go run ./examples/hostdevice
package main

import (
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
	const size = 16 << 20
	eng := sim.NewEngine()
	clus := cluster.New(eng, cluster.RICC(), 2)
	world := mpi.NewWorld(clus)
	fab := clmpi.New(world, clmpi.Options{})

	world.LaunchRanks("fig7", func(p *sim.Proc, ep *mpi.Endpoint) {
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), fmt.Sprintf("ctx%d", ep.Rank()))
		rt := fab.Attach(ctx, ep)
		q := ctx.NewQueue("cmd")

		if ep.Rank() == 0 {
			recvbuf := make([]byte, size) // host memory
			devbuf := ctx.MustCreateBuffer("dev", size)

			// Receiving data from a remote device (MPI_CL_MEM).
			req, err := ep.Irecv(p, recvbuf, 1, 0, mpi.CLMem, world.Comm())
			if err != nil {
				log.Fatal(err)
			}
			// Creating an event object from the MPI request.
			evt0 := rt.CreateEventFromMPIRequest(req)
			// Executing a kernel during the data transfer.
			k := &cl.Kernel{Name: "overlapped", Cost: func([]any) time.Duration { return 10 * time.Millisecond }}
			evt1, err := q.EnqueueNDRangeKernel(k, nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			// Executing this only after both complete — no host blocking.
			wev, err := q.EnqueueWriteBuffer(p, devbuf, false, 0, size, bytepool.Host(recvbuf), cluster.Pinned,
				[]*cl.Event{evt0, evt1})
			if err != nil {
				log.Fatal(err)
			}
			if err := wev.Wait(p); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("rank 0: kernel finished %v, MPI_Irecv finished %v, gated write ran %v → %v\n",
				evt1.FinishedAt, evt0.FinishedAt, wev.StartedAt, wev.FinishedAt)
			fmt.Printf("rank 0: first device byte after chain: %#x (expect 0xA7)\n", devbuf.Bytes()[0])
		} else {
			// Rank 1: the communicator device sends its buffer to the
			// remote *host* (Fig. 7's else branch).
			buf := ctx.MustCreateBuffer("src", size)
			for i := range buf.Bytes() {
				buf.Bytes()[i] = 0xA7
			}
			if _, err := rt.EnqueueSendBuffer(p, q, buf, true, 0, size, 0, 0, world.Comm(), nil); err != nil {
				log.Fatal(err)
			}
		}
	})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
}

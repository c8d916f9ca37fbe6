// Joint programming, before and after: reproduces the contrast between
// Figure 1 (naive joint MPI+OpenCL, every dependency serialized through the
// blocked host thread) and the clMPI rewrite, on the same workload — a
// kernel produces data that a neighbour needs before running its own kernel.
//
// The printed timings show where the paper's overlap argument (§III, §IV)
// comes from: the naive version pays kernel + D2H + wire + H2D + kernel in
// sequence, while the clMPI version lets each rank's second kernel overlap
// the communication commands of the next exchange.
//
//	go run ./examples/jointnaive
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

const (
	bufSize    = 4 << 20
	kernelTime = 6 * time.Millisecond
	rounds     = 4
)

// produce is a stand-in compute kernel that stamps the round number.
func produce(round int) *cl.Kernel {
	return &cl.Kernel{
		Name: fmt.Sprintf("produce%d", round),
		Cost: func([]any) time.Duration { return kernelTime },
		Work: func(args []any) error {
			buf := args[0].(*cl.Buffer)
			buf.Bytes()[0] = byte(round)
			return nil
		},
	}
}

// naive is Figure 1: clEnqueueNDRangeKernel, blocking clEnqueueReadBuffer,
// MPI_Sendrecv, clEnqueueWriteBuffer — all serialized by the host thread.
func naive(eng *sim.Engine, world *mpi.World) time.Duration {
	var elapsed time.Duration
	world.LaunchRanks("naive", func(p *sim.Proc, ep *mpi.Endpoint) {
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), "naive")
		q := ctx.NewQueue("cmd")
		buf := ctx.MustCreateBuffer("buf", bufSize)
		peer := 1 - ep.Rank()
		host := make([]byte, bufSize)
		hostIn := make([]byte, bufSize)
		start := p.Now()
		for r := 0; r < rounds; r++ {
			// Kernel, then wait for it through the blocking read.
			if _, err := q.EnqueueNDRangeKernel(produce(r), []any{buf}, nil); err != nil {
				log.Fatal(err)
			}
			// Blocking read: the host thread stalls (third arg CL_TRUE).
			if _, err := q.EnqueueReadBuffer(p, buf, true, 0, bufSize, bytepool.Host(host), cluster.Pinned, nil); err != nil {
				log.Fatal(err)
			}
			// MPI_Sendrecv with the neighbour.
			if _, err := ep.Sendrecv(p, host, peer, 0, hostIn, peer, 0, world.Comm()); err != nil {
				log.Fatal(err)
			}
			// Blocking write of the received halo.
			if _, err := q.EnqueueWriteBuffer(p, buf, true, 0, bufSize, bytepool.Host(hostIn), cluster.Pinned, nil); err != nil {
				log.Fatal(err)
			}
		}
		if ep.Rank() == 0 {
			elapsed = p.Now().Sub(start)
		}
	})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
	return elapsed
}

// withCLMPI is the same dataflow with the extension: the transfer is an
// enqueued command gated on the kernel's event, and the next round's kernel
// is gated on the receive — the host thread never blocks inside the loop.
func withCLMPI(eng *sim.Engine, world *mpi.World, fab *clmpi.Fabric) time.Duration {
	var elapsed time.Duration
	world.LaunchRanks("clmpi", func(p *sim.Proc, ep *mpi.Endpoint) {
		ctx := cl.NewContext(cl.NewDevice(eng, ep.Node()), "clmpi")
		rt := fab.Attach(ctx, ep)
		qc := ctx.NewQueue("compute")
		// Sends and receives go on separate in-order queues: a send
		// command blocks its queue until the peer posts the matching
		// receive, so queueing the receive behind one's own send would
		// deadlock both ranks (and the simulator's deadlock detector
		// reports exactly that if you try).
		qs := ctx.NewQueue("comm-send")
		qr := ctx.NewQueue("comm-recv")
		out := ctx.MustCreateBuffer("out", bufSize)
		in := ctx.MustCreateBuffer("in", bufSize)
		peer := 1 - ep.Rank()
		start := p.Now()
		var lastRecv *cl.Event
		for r := 0; r < rounds; r++ {
			// The kernel waits (via events) for the previous receive.
			var kw []*cl.Event
			if lastRecv != nil {
				kw = append(kw, lastRecv)
			}
			kev, err := qc.EnqueueNDRangeKernel(produce(r), []any{out}, kw)
			if err != nil {
				log.Fatal(err)
			}
			// Send the kernel's output; receive the neighbour's.
			if _, err := rt.EnqueueSendBuffer(p, qs, out, false, 0, bufSize, peer, r, world.Comm(), []*cl.Event{kev}); err != nil {
				log.Fatal(err)
			}
			lastRecv, err = rt.EnqueueRecvBuffer(p, qr, in, false, 0, bufSize, peer, r, world.Comm(), nil)
			if err != nil {
				log.Fatal(err)
			}
		}
		// The host's only synchronization point (Fig. 6 style).
		for _, q := range []*cl.CommandQueue{qc, qs, qr} {
			if err := q.Finish(p); err != nil {
				log.Fatal(err)
			}
		}
		if ep.Rank() == 0 {
			elapsed = p.Now().Sub(start)
		}
	})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
	return elapsed
}

func main() {
	mk := func() (*sim.Engine, *mpi.World) {
		eng := sim.NewEngine()
		return eng, mpi.NewWorld(cluster.New(eng, cluster.RICC(), 2))
	}

	eng, world := mk()
	clmpi.New(world, clmpi.Options{})
	tNaive := naive(eng, world)

	eng2, world2 := mk()
	fab := clmpi.New(world2, clmpi.Options{})
	tCLMPI := withCLMPI(eng2, world2, fab)

	fmt.Printf("%d rounds of kernel + %d MiB neighbour exchange on RICC:\n", rounds, bufSize>>20)
	fmt.Printf("  naive joint programming (Fig. 1): %v\n", tNaive)
	fmt.Printf("  clMPI commands + events:          %v\n", tCLMPI)
	fmt.Printf("  speedup: %.2fx\n", tNaive.Seconds()/tCLMPI.Seconds())
}

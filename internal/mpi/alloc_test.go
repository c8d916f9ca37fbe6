package mpi

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// pingPongAllocs measures the steady-state allocations of one round trip
// between ranks 0 and 1 — a send and its receive each way — at size bytes.
// Rank 0 measures after a warm-up that fills the transport's pools; rank 1
// echoes. launch starts both ranks and run drives the simulation.
func pingPongAllocs(t *testing.T, size int, launch func(body func(p *sim.Proc, ep *Endpoint)), run func() error) float64 {
	const warm, runs = 20, 50
	var allocs float64
	launch(func(p *sim.Proc, ep *Endpoint) {
		comm := ep.World().Comm()
		out, in := make([]byte, size), make([]byte, size)
		peer := 1 - ep.Rank()
		if ep.Rank() == 1 {
			// One echo per round trip: warm-up, AllocsPerRun's own warm-up
			// call, and the measured runs.
			for i := 0; i < warm+1+runs; i++ {
				if _, err := ep.Recv(p, in, peer, 0, Bytes, comm); err != nil {
					t.Error(err)
				}
				if err := ep.Send(p, out, peer, 0, Bytes, comm); err != nil {
					t.Error(err)
				}
			}
			return
		}
		roundTrip := func() {
			sreq, err := ep.Isend(p, out, peer, 0, Bytes, comm)
			if err != nil {
				t.Error(err)
				return
			}
			rreq, err := ep.Irecv(p, in, peer, 0, Bytes, comm)
			if err != nil {
				t.Error(err)
				return
			}
			if err := Waitall(p, sreq, rreq); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < warm; i++ {
			roundTrip()
		}
		allocs = testing.AllocsPerRun(runs, roundTrip)
	})
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestTransportAllocs bounds the steady-state allocations of the
// point-to-point transport. Every operation is one heap object (the message
// with its send request, the receive op with its receive request), delivery
// runs no closure, and wire transfers recycle their step state, so a round
// trip of two sends and two receives costs four objects on one engine. On a
// 2-shard world each cross message adds its cross send and its cross
// event's closure but recycles its injected envelope; the partitioned
// engine's quiescence check reuses one engine-owned slice and allocates
// nothing.
func TestTransportAllocs(t *testing.T) {
	sys := cluster.RICC()
	serial := func(size int) float64 {
		e := sim.NewEngine()
		w := NewWorld(cluster.New(e, sys, 2))
		return pingPongAllocs(t, size, func(body func(*sim.Proc, *Endpoint)) { w.LaunchRanks("pp", body) }, e.Run)
	}
	cases := []struct {
		name   string
		allocs func() float64
		max    float64
	}{
		{"eager", func() float64 { return serial(1024) }, 4},
		{"rendezvous", func() float64 { return serial(EagerThreshold + 1) }, 4},
		{"cross-shard eager", func() float64 {
			pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, 2, 2))
			pw := NewPartWorld(pe, sys, 2)
			return pingPongAllocs(t, 1024, func(body func(*sim.Proc, *Endpoint)) { pw.LaunchRanks("pp", body) },
				func() error { return pw.Run(1) })
		}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.allocs()
			t.Logf("%v allocations per round trip", got)
			if got > tc.max {
				t.Fatalf("a round trip allocated %v objects, want at most %v", got, tc.max)
			}
		})
	}
}

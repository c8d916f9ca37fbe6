package clmpi

import (
	"fmt"
	"time"

	"repro/internal/bytepool"
	"repro/internal/cl"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// The strategy table: each data-transfer implementation of §III (plus the
// peer-DMA extension) is a strategyImpl — a wire-chunking rule and a pair of
// pipeline builders that compose the transfer from xfer stages. runSend and
// runRecv resolve the plan, look the strategy up here, and hand the built
// pipeline to the xfer engine; there is no per-strategy control flow left in
// this package.

// xferArgs packages one resolved transfer for the pipeline builders.
type xferArgs struct {
	lane string       // trace lane / helper-process prefix
	data bytepool.Seg // the whole device buffer as a transport window
	peer int          // destination (send) or source (recv) rank
	tag  int
	comm *mpi.Comm
	wins []xfer.Window
}

// strategyImpl describes one transfer implementation: how a message is
// chunked on the wire and how each side's pipeline is composed.
type strategyImpl struct {
	// chunks computes the wire protocol (message sizes, in order) from
	// the configured pipeline block and the transfer size. Sender and
	// receiver compute it identically.
	chunks func(block, size int64) []int64
	// send and recv build the transfer pipeline for one resolved plan;
	// rt supplies the device, the endpoint and the preallocated rings.
	send func(rt *Runtime, a *xferArgs) xfer.Pipeline
	recv func(rt *Runtime, a *xferArgs) xfer.Pipeline
}

// strategies maps every resolved (non-Auto) strategy to its implementation.
var strategies = map[Strategy]*strategyImpl{
	Pinned:    pinnedImpl,
	Mapped:    mappedImpl,
	Pipelined: pipelinedImpl,
	Peer:      peerImpl,
}

// oneShot is the chunking of the one-shot strategies: the whole message in
// a single envelope.
func oneShot(_, size int64) []int64 { return []int64{size} }

// blockChunks splits a message into pipeline blocks of the configured size.
// A zero-byte message still needs one envelope.
func blockChunks(block, size int64) []int64 {
	var chunks []int64
	for rem := size; rem > 0; rem -= block {
		c := block
		if rem < block {
			c = rem
		}
		chunks = append(chunks, c)
	}
	if len(chunks) == 0 {
		chunks = []int64{0}
	}
	return chunks
}

// Stage builders. Each returns one xfer.Stage whose Run charges the hop's
// cost against the simulation; composing them is the whole of a strategy.

// setupStage is a fixed-cost hop (pin registration, map/unmap bookkeeping).
func setupStage(name string, d time.Duration) xfer.Stage {
	return xfer.Stage{Name: name, Sleep: d}
}

// d2hStage moves one window from device to host through memory of the given
// kind, contending on the PCIe device→host link.
func (rt *Runtime) d2hStage(kind cluster.HostMemKind) xfer.Stage {
	return xfer.Stage{Name: "d2h." + kind.String(), Run: func(p *sim.Proc, w xfer.Window) error {
		rt.ctx.Device.DeviceToHost(p, w.N, kind)
		return nil
	}}
}

// h2dStage moves one window from host to device.
func (rt *Runtime) h2dStage(kind cluster.HostMemKind) xfer.Stage {
	return xfer.Stage{Name: "h2d." + kind.String(), Run: func(p *sim.Proc, w xfer.Window) error {
		rt.ctx.Device.HostToDevice(p, w.N, kind)
		return nil
	}}
}

// wireSendStage hands one window to the MPI transport.
func (rt *Runtime) wireSendStage(a *xferArgs) xfer.Stage {
	return xfer.Stage{Name: "wire.send", Run: func(p *sim.Proc, w xfer.Window) error {
		req, err := rt.ep.IsendSeg(p, a.data.Slice(int(w.Off), int(w.N)), a.peer, a.tag, wireDatatype, a.comm)
		if err != nil {
			return err
		}
		_, err = req.Wait(p)
		// Observe even failed waits: the wire operation ran, and graph
		// builders need its stage linkage either way.
		rt.fab.observeMsgOp(req.Seq())
		return err
	}}
}

// wireRecvStage receives one window from the MPI transport. A wildcard
// source locks to the first window's sender so interleaved transfers from
// different ranks cannot mix.
func (rt *Runtime) wireRecvStage(a *xferArgs) xfer.Stage {
	src := a.peer
	return xfer.Stage{Name: "wire.recv", Run: func(p *sim.Proc, w xfer.Window) error {
		req, err := rt.ep.IrecvSeg(p, a.data.Slice(int(w.Off), int(w.N)), src, a.tag, wireDatatype, a.comm)
		if err != nil {
			return err
		}
		st, err := req.Wait(p)
		rt.fab.observeMsgOp(req.Seq())
		if err != nil {
			return err
		}
		src = st.Source
		return nil
	}}
}

// pinnedImpl: one-shot staging through a freshly registered pinned buffer —
// pay the registration, copy over PCIe at full rate, then the wire hop.
var pinnedImpl = &strategyImpl{
	chunks: oneShot,
	send: func(rt *Runtime, a *xferArgs) xfer.Pipeline {
		g := rt.gpu()
		return xfer.Pipeline{Label: a.lane, Wins: a.wins, Stages: []xfer.Stage{
			setupStage("pin", g.PinSetup),
			rt.d2hStage(cluster.Pinned),
			rt.wireSendStage(a),
		}}
	},
	recv: func(rt *Runtime, a *xferArgs) xfer.Pipeline {
		g := rt.gpu()
		return xfer.Pipeline{Label: a.lane, Wins: a.wins, Stages: []xfer.Stage{
			setupStage("pin", g.PinSetup),
			rt.wireRecvStage(a),
			rt.h2dStage(cluster.Pinned),
		}}
	},
}

// mappedImpl: map the device region into host memory (the driver copies at
// the mapped rate), run MPI on the mapped view, unmap. The send side's map
// is read-only so there is no write-back; the recv side maps with
// invalidation and pays the write-back on unmap.
var mappedImpl = &strategyImpl{
	chunks: oneShot,
	send: func(rt *Runtime, a *xferArgs) xfer.Pipeline {
		g := rt.gpu()
		return xfer.Pipeline{Label: a.lane, Wins: a.wins, Stages: []xfer.Stage{
			setupStage("map", g.MapSetup),
			rt.d2hStage(cluster.Mapped),
			rt.wireSendStage(a),
			setupStage("unmap", g.MapSetup),
		}}
	},
	recv: func(rt *Runtime, a *xferArgs) xfer.Pipeline {
		g := rt.gpu()
		return xfer.Pipeline{Label: a.lane, Wins: a.wins, Stages: []xfer.Stage{
			setupStage("map", g.MapSetup),
			rt.wireRecvStage(a),
			setupStage("unmap", g.MapSetup),
			rt.h2dStage(cluster.Mapped),
		}}
	},
}

// pipelinedImpl: blocks staged through the runtime's preallocated pinned
// ring, the PCIe hop overlapping the wire hop (§III, "pipelined"). The
// calling process drives the wire side; the xfer engine runs the PCIe side
// on a helper.
var pipelinedImpl = &strategyImpl{
	chunks: blockChunks,
	send: func(rt *Runtime, a *xferArgs) xfer.Pipeline {
		return xfer.Pipeline{Label: a.lane, Wins: a.wins, Ring: rt.rings.send, Driver: 1,
			Stages: []xfer.Stage{
				rt.d2hStage(cluster.Pinned),
				rt.wireSendStage(a),
			}}
	},
	recv: func(rt *Runtime, a *xferArgs) xfer.Pipeline {
		return xfer.Pipeline{Label: a.lane, Wins: a.wins, Ring: rt.rings.recv, Driver: 0,
			Stages: []xfer.Stage{
				rt.wireRecvStage(a),
				rt.h2dStage(cluster.Pinned),
			}}
	},
}

// peerImpl: GPUDirect-style peer DMA — the NIC reads and writes device
// memory directly, skipping host staging. The one-time Setup charges the
// peer mapping registration; blocks then flow NIC↔GPU at the peer rate,
// overlapped through the same ring discipline as pipelined. Requires
// NICSpec.PeerDMA (see Runtime.checkPeer).
var peerImpl = &strategyImpl{
	chunks: blockChunks,
	send: func(rt *Runtime, a *xferArgs) xfer.Pipeline {
		g := rt.gpu()
		return xfer.Pipeline{Label: a.lane, Wins: a.wins, Ring: rt.rings.send, Driver: 1,
			Setup: g.PeerSetup,
			Stages: []xfer.Stage{
				rt.d2hStage(cluster.Peer),
				rt.wireSendStage(a),
			}}
	},
	recv: func(rt *Runtime, a *xferArgs) xfer.Pipeline {
		g := rt.gpu()
		return xfer.Pipeline{Label: a.lane, Wins: a.wins, Ring: rt.rings.recv, Driver: 0,
			Setup: g.PeerSetup,
			Stages: []xfer.Stage{
				rt.wireRecvStage(a),
				rt.h2dStage(cluster.Peer),
			}}
	},
}

// gpu returns the node's GPU spec.
func (rt *Runtime) gpu() *cluster.GPUSpec { return &rt.ep.Node().Sys.GPU }

// checkPeer rejects the peer strategy on systems whose NIC or GPU cannot do
// peer DMA.
func (rt *Runtime) checkPeer(st Strategy) error {
	if st != Peer {
		return nil
	}
	sys := rt.ep.Node().Sys
	if !sys.NIC.PeerDMA || sys.GPU.PeerBW <= 0 {
		return fmt.Errorf("%w: system %s", ErrNoPeerDMA, sys.Name)
	}
	return nil
}

// newXferArgs resolves the transfer's windows and allocates its trace lane
// (rank plus a per-runtime sequence number, so concurrent transfers stay
// distinguishable).
func (rt *Runtime) newXferArgs(kind string, buf *cl.Buffer, offset int64, peer, tag int, comm *mpi.Comm, pl transferPlan) *xferArgs {
	seq := rt.seq
	rt.seq++
	return &xferArgs{
		lane: fmt.Sprintf("rank%d.%s.t%d", rt.ep.Rank(), kind, seq),
		data: buf.Seg(0, buf.Size()),
		peer: peer,
		tag:  tag,
		comm: comm,
		wins: xfer.Windows(pl.chunks, offset),
	}
}

// runSend executes a device→remote transfer on the queue worker process wp.
// It returns once the final byte has been accepted by the transport, i.e.
// when the device buffer may be reused.
func (rt *Runtime) runSend(wp *sim.Proc, buf *cl.Buffer, offset, size int64, dest, tag int, comm *mpi.Comm) error {
	pl := rt.fab.plan(size, rt.ep.Node().Sys)
	impl := strategies[pl.strategy]
	if impl == nil {
		return fmt.Errorf("clmpi: unresolved strategy %v", pl.strategy)
	}
	if err := rt.checkPeer(pl.strategy); err != nil {
		return err
	}
	pipe := impl.send(rt, rt.newXferArgs("send", buf, offset, dest, tag, comm, pl))
	pipe.Observer = rt.fab.stageObs
	if po := rt.fab.pipeObs; po != nil {
		po(pipe.Label, wp.Name(), false)
		defer po(pipe.Label, wp.Name(), true)
	}
	return xfer.Run(wp, &pipe)
}

// runRecv executes a remote→device transfer on the queue worker process wp.
// It returns once the data is resident in device memory.
func (rt *Runtime) runRecv(wp *sim.Proc, buf *cl.Buffer, offset, size int64, src, tag int, comm *mpi.Comm) error {
	pl := rt.fab.plan(size, rt.ep.Node().Sys)
	impl := strategies[pl.strategy]
	if impl == nil {
		return fmt.Errorf("clmpi: unresolved strategy %v", pl.strategy)
	}
	if err := rt.checkPeer(pl.strategy); err != nil {
		return err
	}
	pipe := impl.recv(rt, rt.newXferArgs("recv", buf, offset, src, tag, comm, pl))
	pipe.Observer = rt.fab.stageObs
	if po := rt.fab.pipeObs; po != nil {
		po(pipe.Label, wp.Name(), false)
		defer po(pipe.Label, wp.Name(), true)
	}
	return xfer.Run(wp, &pipe)
}

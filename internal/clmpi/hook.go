package clmpi

import (
	"fmt"

	"repro/internal/bytepool"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// The Fabric implements mpi.CLMemHook: when a host thread passes the CLMem
// datatype to MPI_Isend/MPI_Irecv (§IV-C, Fig. 7), these methods run the
// host side of the collaboration. The peer is a communicator device whose
// EnqueueSendBuffer/EnqueueRecvBuffer follows the same deterministic chunk
// plan, so the two sides agree on the wire protocol without negotiation.
// The host side has no PCIe hop, so its pipeline is the bare wire stage
// applied to the plan's windows.
var _ mpi.CLMemHook = (*Fabric)(nil)

// hookLane names one host-side transfer's trace lane.
func (f *Fabric) hookLane(kind string, rank int) string {
	seq := f.seq
	f.seq++
	return fmt.Sprintf("rank%d.%s.t%d", rank, kind, seq)
}

// IsendCLMem sends a host buffer to a remote communicator device. The
// returned request completes when the transport has accepted all chunks
// (the host buffer is then reusable).
func (f *Fabric) IsendCLMem(p *sim.Proc, ep *mpi.Endpoint, buf bytepool.Seg, dest, tag int, comm *mpi.Comm) (*mpi.Request, error) {
	pl := f.plan(int64(buf.Len()), ep.Node().Sys)
	req, complete := mpi.NewUserRequest(ep.World(), fmt.Sprintf("isend(CL_MEM) %d->%d tag %d", ep.Rank(), dest, tag))
	lane := f.hookLane("clmem.send", ep.Rank())
	p.Spawn(fmt.Sprintf("clmem.send.rank%d", ep.Rank()), func(sp *sim.Proc) {
		pipe := xfer.Pipeline{
			Label: lane,
			Wins:  xfer.Windows(pl.chunks, 0),
			Stages: []xfer.Stage{{Name: "wire.send", Run: func(q *sim.Proc, w xfer.Window) error {
				req, err := ep.IsendSeg(q, buf.Slice(int(w.Off), int(w.N)), dest, tag, wireDatatype, comm)
				if err != nil {
					return err
				}
				_, err = req.Wait(q)
				return err
			}}},
			Observer: f.stageObs,
		}
		complete(mpi.Status{}, xfer.Run(sp, &pipe))
	})
	return req, nil
}

// IrecvCLMem receives into a host buffer from a remote communicator device.
// The returned request completes when all chunks have been reassembled.
func (f *Fabric) IrecvCLMem(p *sim.Proc, ep *mpi.Endpoint, buf bytepool.Seg, src, tag int, comm *mpi.Comm) (*mpi.Request, error) {
	pl := f.plan(int64(buf.Len()), ep.Node().Sys)
	req, complete := mpi.NewUserRequest(ep.World(), fmt.Sprintf("irecv(CL_MEM) %d<-%d tag %d", ep.Rank(), src, tag))
	lane := f.hookLane("clmem.recv", ep.Rank())
	p.Spawn(fmt.Sprintf("clmem.recv.rank%d", ep.Rank()), func(rp *sim.Proc) {
		actualSrc := src
		var got int64
		pipe := xfer.Pipeline{
			Label: lane,
			Wins:  xfer.Windows(pl.chunks, 0),
			Stages: []xfer.Stage{{Name: "wire.recv", Run: func(q *sim.Proc, w xfer.Window) error {
				req, err := ep.IrecvSeg(q, buf.Slice(int(w.Off), int(w.N)), actualSrc, tag, wireDatatype, comm)
				if err != nil {
					return err
				}
				st, err := req.Wait(q)
				if err != nil {
					return err
				}
				// Lock a wildcard source to the first chunk's sender.
				actualSrc = st.Source
				got += w.N
				return nil
			}}},
			Observer: f.stageObs,
		}
		if err := xfer.Run(rp, &pipe); err != nil {
			complete(mpi.Status{}, err)
			return
		}
		complete(mpi.Status{Source: actualSrc, Tag: tag, Count: int(got)}, nil)
	})
	return req, nil
}

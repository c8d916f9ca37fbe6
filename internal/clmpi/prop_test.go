package clmpi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestPropTransfersByteExact: for random strategies, sizes, offsets, block
// sizes and ring depths, EnqueueSendBuffer → EnqueueRecvBuffer delivers
// byte-identical payloads into the requested window and touches nothing
// outside it. Three random choices widen the property over the data
// plane: the sender may be left never written (a zero source), the
// receiver may be left untouched instead of pre-filled with 0xEE, and
// either side may be a host buffer driven through the CLMem hook
// (IsendCLMem / IrecvCLMem).
func TestPropTransfersByteExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := []Strategy{Pinned, Mapped, Pipelined, Auto}[rng.Intn(4)]
		size := int64(rng.Intn(4<<20) + 1)
		sendOff := int64(rng.Intn(512))
		recvOff := int64(rng.Intn(512))
		opts := Options{
			Strategy:      st,
			PipelineBlock: int64(rng.Intn(2<<20) + 1024),
			RingBuffers:   rng.Intn(4) + 1,
		}
		zeroSrc := rng.Intn(3) == 0
		untouchedDst := rng.Intn(3) == 0
		hook := rng.Intn(3) == 0
		hostSends := rng.Intn(2) == 0
		r := newRig(t, cluster.RICC(), 2, opts)
		comm := r.w.Comm()
		payload := make([]byte, size)
		if !zeroSrc {
			rng.Read(payload)
		}
		fill := byte(0xEE)
		if untouchedDst {
			fill = 0
		}
		var dst []byte // the receiver's whole buffer after the transfer
		r.run(t, func(p *sim.Proc, rank int) {
			ep := r.w.Endpoint(rank)
			q := r.ctxs[rank].NewQueue("q")
			switch {
			case rank == 0 && hook && hostSends:
				req, err := ep.Isend(p, payload, 1, 0, mpi.CLMem, comm)
				if err == nil {
					_, err = req.Wait(p)
				}
				if err != nil {
					t.Errorf("host send: %v", err)
				}
			case rank == 0:
				buf := r.ctxs[0].MustCreateBuffer("b", size+1024)
				if !zeroSrc {
					copy(buf.Bytes()[sendOff:], payload)
				}
				if _, err := r.rts[0].EnqueueSendBuffer(p, q, buf, true, sendOff, size, 1, 0, comm, nil); err != nil {
					t.Errorf("send: %v", err)
				}
			case hook && !hostSends:
				host := bytes.Repeat([]byte{fill}, int(size+1024))
				req, err := ep.Irecv(p, host[recvOff:recvOff+size], 0, 0, mpi.CLMem, comm)
				if err == nil {
					_, err = req.Wait(p)
				}
				if err != nil {
					t.Errorf("host recv: %v", err)
				}
				dst = host
			default:
				buf := r.ctxs[1].MustCreateBuffer("b", size+1024)
				if !untouchedDst {
					for i := range buf.Bytes() {
						buf.Bytes()[i] = fill
					}
				}
				if _, err := r.rts[1].EnqueueRecvBuffer(p, q, buf, true, recvOff, size, 0, 0, comm, nil); err != nil {
					t.Errorf("recv: %v", err)
				}
				dst = append([]byte(nil), buf.Bytes()...)
			}
		})
		if !bytes.Equal(dst[recvOff:recvOff+size], payload) {
			return false
		}
		for _, g := range append(dst[:recvOff:recvOff], dst[recvOff+size:]...) {
			if g != fill {
				return false // wrote outside the window
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropPipelinedNeverSlowerThanSerialSum: the pipelined time for any size
// and block is bounded below by each hop alone and above by the serial sum
// of both hops plus overheads — i.e., overlap never produces impossible
// speedups and never loses to full serialization.
func TestPropPipelinedNeverSlowerThanSerialSum(t *testing.T) {
	f := func(sizeKB uint16, blockKB uint16) bool {
		size := int64(sizeKB%8192+64) * 1024
		block := int64(blockKB%2048+64) * 1024
		sys := cluster.RICC()
		r := newRig(t, sys, 2, Options{Strategy: Pipelined, PipelineBlock: block})
		var elapsed float64
		r.run(t, func(p *sim.Proc, rank int) {
			q := r.ctxs[rank].NewQueue("q")
			buf := r.ctxs[rank].MustCreateBuffer("b", size)
			if rank == 0 {
				start := p.Now()
				r.rts[0].EnqueueSendBuffer(p, q, buf, true, 0, size, 1, 0, r.w.Comm(), nil)
				elapsed = p.Now().Sub(start).Seconds()
			} else {
				r.rts[1].EnqueueRecvBuffer(p, q, buf, true, 0, size, 0, 0, r.w.Comm(), nil)
			}
		})
		wire := float64(size) / sys.NIC.BW
		pcie := float64(size) / sys.GPU.PinnedBW
		if elapsed < wire || elapsed < pcie {
			return false // faster than the slowest hop: impossible
		}
		nblocks := float64((size + block - 1) / block)
		perBlock := 2*sys.GPU.DMALatency.Seconds() + 2*sys.NIC.MsgOverhead.Seconds() + sys.NIC.WireLatency.Seconds() + 1e-4
		serial := wire + 2*pcie + nblocks*perBlock
		return elapsed <= serial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bytepool"
	"repro/internal/sim"
)

// Collectives are built from the point-to-point layer using negative
// internal tags, which user-level wildcard receives can never match (see
// matches). The paper's extension deliberately leaves collectives to MPI
// (§IV-C: "it does not currently offer any collective communications"), so
// these exist to support applications and tests, not the clMPI runtime.

// Internal tag bases; the round or phase number is added to each.
const (
	tagBarrier = -1000
	tagBcast   = -2000
	tagGather  = -3000
	tagReduce  = -4000
)

// Barrier blocks until every rank of the communicator has entered it,
// using the dissemination algorithm: ⌈log₂ n⌉ rounds of one-byte messages.
func (ep *Endpoint) Barrier(p *sim.Proc, comm *Comm) error {
	n := ep.world.size
	if n == 1 {
		return nil
	}
	me := ep.rank
	one := []byte{1}
	in := make([]byte, 1)
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		tag := tagBarrier - round
		sreq := ep.postSend(bytepool.Host(one), to, tag, comm)
		rreq := ep.postRecv(bytepool.Host(in), from, tag, comm)
		if _, err := sreq.Wait(p); err != nil {
			return fmt.Errorf("mpi: barrier round %d: %w", round, err)
		}
		if _, err := rreq.Wait(p); err != nil {
			return fmt.Errorf("mpi: barrier round %d: %w", round, err)
		}
	}
	return nil
}

// Bcast distributes root's buf to every rank along a binomial tree, like
// MPI_Bcast. All ranks must pass buffers of identical length.
func (ep *Endpoint) Bcast(p *sim.Proc, buf []byte, root int, comm *Comm) error {
	n := ep.world.size
	if root < 0 || root >= n {
		return fmt.Errorf("%w: bcast root %d", ErrRankRange, root)
	}
	if n == 1 {
		return nil
	}
	// Rotate so the root is virtual rank 0, then walk the binomial tree
	// exactly as MPICH does: receive from the parent at the lowest set
	// bit, then forward to children at descending distances below it.
	vrank := (ep.rank - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % n
			if _, err := ep.postRecv(bytepool.Host(buf), parent, tagBcast, comm).Wait(p); err != nil {
				return fmt.Errorf("mpi: bcast recv: %w", err)
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			child := (vrank + mask + root) % n
			if err := ep.Wait(p, ep.postSend(bytepool.Host(buf), child, tagBcast, comm)); err != nil {
				return fmt.Errorf("mpi: bcast send: %w", err)
			}
		}
	}
	return nil
}

// Wait waits one request; a small helper to keep collective code readable.
func (ep *Endpoint) Wait(p *sim.Proc, r *Request) error {
	_, err := r.Wait(p)
	return err
}

// Gather collects each rank's contribution (all of identical length) into
// root's out slice, laid out by rank, like MPI_Gather with equal counts.
// Non-root ranks may pass out nil.
func (ep *Endpoint) Gather(p *sim.Proc, contrib []byte, out []byte, root int, comm *Comm) error {
	n := ep.world.size
	if root < 0 || root >= n {
		return fmt.Errorf("%w: gather root %d", ErrRankRange, root)
	}
	sz := len(contrib)
	if ep.rank == root {
		if len(out) < sz*n {
			return fmt.Errorf("%w: gather buffer %d < %d", ErrTruncate, len(out), sz*n)
		}
		copy(out[root*sz:], contrib)
		reqs := make([]*Request, 0, n-1)
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			reqs = append(reqs, ep.postRecv(bytepool.Host(out[r*sz:(r+1)*sz]), r, tagGather, comm))
		}
		return Waitall(p, reqs...)
	}
	return ep.Wait(p, ep.postSend(bytepool.Host(contrib), root, tagGather, comm))
}

// AllreduceSum sums one float64 across all ranks and returns the total on
// every rank, via a recursive-doubling exchange (power-of-two friendly but
// correct for any size through a ring fallback).
func (ep *Endpoint) AllreduceSum(p *sim.Proc, x float64, comm *Comm) (float64, error) {
	n := ep.world.size
	if n == 1 {
		return x, nil
	}
	// Ring allreduce on a single scalar: n-1 steps, each passing the
	// running partial sum. Simple, deterministic, O(n) latency — fine for
	// the scalar reductions the applications need (residual norms).
	me := ep.rank
	buf := make([]byte, 8)
	total := x
	cur := x
	for step := 0; step < n-1; step++ {
		to := (me + 1) % n
		from := (me - 1 + n) % n
		tag := tagReduce - step
		binary.LittleEndian.PutUint64(buf, math.Float64bits(cur))
		sreq := ep.postSend(bytepool.Host(buf), to, tag, comm)
		in := make([]byte, 8)
		rreq := ep.postRecv(bytepool.Host(in), from, tag, comm)
		if _, err := sreq.Wait(p); err != nil {
			return 0, fmt.Errorf("mpi: allreduce step %d: %w", step, err)
		}
		if _, err := rreq.Wait(p); err != nil {
			return 0, fmt.Errorf("mpi: allreduce step %d: %w", step, err)
		}
		cur = math.Float64frombits(binary.LittleEndian.Uint64(in))
		total += cur
	}
	return total, nil
}

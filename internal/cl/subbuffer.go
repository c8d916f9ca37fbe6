package cl

import (
	"fmt"

	"repro/internal/sim"
)

// CreateSubBuffer returns a buffer object aliasing [origin, origin+size) of
// the parent, like clCreateSubBuffer with CL_BUFFER_CREATE_TYPE_REGION. The
// sub-buffer shares the parent's storage (writes through either are visible
// in both) and does not consume additional device memory; releasing it is a
// no-op on the parent's allocation.
//
// Sub-buffers let applications hand a window of a large array to the clMPI
// communication commands — e.g. a halo plane inside a full grid — without
// offset arithmetic at every call site.
func (b *Buffer) CreateSubBuffer(label string, origin, size int64) (*Buffer, error) {
	if err := b.check(origin, size); err != nil {
		return nil, err
	}
	if b.parent != nil {
		// Match OpenCL: sub-buffers of sub-buffers are invalid.
		return nil, fmt.Errorf("%w: sub-buffer of a sub-buffer", ErrInvalidBuffer)
	}
	b.hasSub = true
	return &Buffer{
		ctx:    b.ctx,
		label:  label,
		st:     b.st,
		off:    origin,
		size:   size,
		parent: b,
	}, nil
}

// Parent returns the buffer this one is a sub-buffer of, or nil.
func (b *Buffer) Parent() *Buffer { return b.parent }

// EnqueueFillBuffer fills [offset, offset+size) of the buffer with the
// repeating pattern, like clEnqueueFillBuffer. The fill runs at device
// memory speed (modelled via the copy path), never crossing PCIe.
func (q *CommandQueue) EnqueueFillBuffer(buf *Buffer, pattern []byte, offset, size int64, waits []*Event) (*Event, error) {
	if len(pattern) == 0 {
		return nil, fmt.Errorf("%w: empty fill pattern", ErrInvalidValue)
	}
	if size%int64(len(pattern)) != 0 {
		return nil, fmt.Errorf("%w: size %d not a multiple of pattern length %d", ErrInvalidValue, size, len(pattern))
	}
	if err := buf.check(offset, size); err != nil {
		return nil, err
	}
	label := fmt.Sprintf("fill %s[%d:%d]", buf.label, offset, offset+size)
	return q.Enqueue(label, waits, func(wp *sim.Proc) error {
		g := buf.node().Sys.GPU
		wp.Sleep(g.DMALatency + secondsToDur(float64(size)/(g.PinnedBW*20)))
		dst := buf.Bytes()[offset : offset+size]
		for i := range dst {
			dst[i] = pattern[i%len(pattern)]
		}
		return nil
	})
}

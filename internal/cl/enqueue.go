package cl

import (
	"fmt"
	"time"

	"repro/internal/bytepool"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// EnqueueReadBuffer copies size bytes from the buffer at offset into dst,
// charging a device→host PCIe transfer. dst is host bytes or a store window,
// which zeros leave unwritten; kind is the host memory class it models (the
// paper's naive implementation uses pageable memory, the tuned one pinned —
// §III).
//
// With blocking true the call returns only after the copy completes, like
// passing CL_TRUE to clEnqueueReadBuffer; the calling process p is required
// in that case and for the wait-list semantics of the in-order queue.
func (q *CommandQueue) EnqueueReadBuffer(p *sim.Proc, buf *Buffer, blocking bool, offset, size int64, dst bytepool.Seg, kind cluster.HostMemKind, waits []*Event) (*Event, error) {
	if err := buf.check(offset, size); err != nil {
		return nil, err
	}
	if int64(dst.Len()) < size {
		return nil, fmt.Errorf("%w: host buffer %d bytes < size %d", ErrInvalidValue, dst.Len(), size)
	}
	label := fmt.Sprintf("read %s[%d:%d]", buf.label, offset, offset+size)
	ev, err := q.Enqueue(label, waits, func(wp *sim.Proc) error {
		buf.device().DeviceToHost(wp, size, kind)
		bytepool.Copy(dst, buf.Seg(offset, size))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if blocking {
		if err := ev.Wait(p); err != nil {
			return ev, err
		}
	}
	return ev, nil
}

// EnqueueWriteBuffer copies size bytes from src into the buffer at offset,
// charging a host→device PCIe transfer. The source bytes are captured when
// the command executes, matching OpenCL's rule that the host must not touch
// src until a non-blocking write completes.
func (q *CommandQueue) EnqueueWriteBuffer(p *sim.Proc, buf *Buffer, blocking bool, offset, size int64, src bytepool.Seg, kind cluster.HostMemKind, waits []*Event) (*Event, error) {
	if err := buf.check(offset, size); err != nil {
		return nil, err
	}
	if int64(src.Len()) < size {
		return nil, fmt.Errorf("%w: host buffer %d bytes < size %d", ErrInvalidValue, src.Len(), size)
	}
	label := fmt.Sprintf("write %s[%d:%d]", buf.label, offset, offset+size)
	ev, err := q.Enqueue(label, waits, func(wp *sim.Proc) error {
		buf.device().HostToDevice(wp, size, kind)
		bytepool.Copy(buf.Seg(offset, size), src)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if blocking {
		if err := ev.Wait(p); err != nil {
			return ev, err
		}
	}
	return ev, nil
}

// EnqueueCopyBuffer copies size bytes between two buffers on the same
// device. Device-to-device copies run over the GPU memory bus, far faster
// than PCIe; modelled at 20× the pinned PCIe rate (order of GDDR bandwidth).
func (q *CommandQueue) EnqueueCopyBuffer(src, dst *Buffer, srcOff, dstOff, size int64, waits []*Event) (*Event, error) {
	if err := src.check(srcOff, size); err != nil {
		return nil, err
	}
	if err := dst.check(dstOff, size); err != nil {
		return nil, err
	}
	label := fmt.Sprintf("copy %s->%s[%d]", src.label, dst.label, size)
	return q.Enqueue(label, waits, func(wp *sim.Proc) error {
		g := src.node().Sys.GPU
		wp.Sleep(g.DMALatency + secondsToDur(float64(size)/(g.PinnedBW*20)))
		bytepool.Copy(dst.Seg(dstOff, size), src.Seg(srcOff, size))
		return nil
	})
}

// MappedRegion is the host view returned by EnqueueMapBuffer. Host code may
// read and write Bytes directly; the PCIe cost of materializing the view was
// charged at map time (pre-UVA OpenCL implementations copy the region to
// host memory on map, which is the behaviour the paper's "mapped" transfer
// exploits for its low setup latency).
type MappedRegion struct {
	Bytes  []byte
	buf    *Buffer
	offset int64
	write  bool
}

// EnqueueMapBuffer maps [offset, offset+size) of the buffer into host
// memory. With write true the region is copied back to the device at unmap.
// The map charges a device→host transfer at the device's mapped-memory
// bandwidth plus the map setup cost.
func (q *CommandQueue) EnqueueMapBuffer(p *sim.Proc, buf *Buffer, blocking bool, write bool, offset, size int64, waits []*Event) (*MappedRegion, *Event, error) {
	if err := buf.check(offset, size); err != nil {
		return nil, nil, err
	}
	if buf.mapped {
		return nil, nil, ErrMapped
	}
	buf.mapped = true
	buf.mapOff, buf.mapLen, buf.mapWrite = offset, size, write
	region := &MappedRegion{buf: buf, offset: offset, write: write}
	label := fmt.Sprintf("map %s[%d:%d]", buf.label, offset, offset+size)
	ev, err := q.Enqueue(label, waits, func(wp *sim.Proc) error {
		g := buf.node().Sys.GPU
		wp.Sleep(g.MapSetup)
		buf.device().DeviceToHost(wp, size, cluster.Mapped)
		// The host view aliases the device bytes: reads see device data,
		// writes are published at unmap (when the copy-back is charged).
		region.Bytes = buf.Bytes()[offset : offset+size]
		return nil
	})
	if err != nil {
		buf.mapped = false
		return nil, nil, err
	}
	if blocking {
		if werr := ev.Wait(p); werr != nil {
			return nil, ev, werr
		}
	}
	return region, ev, nil
}

// EnqueueUnmapMemObject releases a mapped region, charging the copy-back for
// writable maps plus the unmap bookkeeping cost.
func (q *CommandQueue) EnqueueUnmapMemObject(region *MappedRegion, waits []*Event) (*Event, error) {
	buf := region.buf
	if buf == nil {
		return nil, ErrInvalidValue
	}
	if !buf.mapped {
		return nil, ErrNotMapped
	}
	buf.mapped = false
	size := buf.mapLen
	write := buf.mapWrite
	label := fmt.Sprintf("unmap %s", buf.label)
	return q.Enqueue(label, waits, func(wp *sim.Proc) error {
		g := buf.node().Sys.GPU
		wp.Sleep(g.MapSetup)
		if write {
			buf.device().HostToDevice(wp, size, cluster.Mapped)
		}
		region.buf = nil
		region.Bytes = nil
		return nil
	})
}

// secondsToDur converts floating-point seconds to a duration.
func secondsToDur(s float64) time.Duration { return time.Duration(s * 1e9) }

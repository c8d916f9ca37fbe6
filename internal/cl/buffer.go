package cl

import (
	"fmt"

	"repro/internal/bytepool"
	"repro/internal/cluster"
)

// Buffer is a device memory object (cl_mem). Its bytes live in host RAM of
// the simulating process, but virtual-time charges model them as resident in
// the GPU's memory: host access goes through the PCIe cost model.
type Buffer struct {
	ctx   *Context
	label string
	// st holds the bytes; a sub-buffer is the window [off, off+size) of its
	// parent's store. The store stays unmaterialized until first written.
	st        *bytepool.Store
	off, size int64
	mapped    bool
	mapOff    int64
	mapLen    int64
	mapWrite  bool
	released  bool
	parent    *Buffer // non-nil for sub-buffers (see CreateSubBuffer)
	// hasSub records that a sub-buffer was ever created over this buffer's
	// storage. Sub-buffers share the store, so a parent with sub-buffers can
	// never return its block to the pool.
	hasSub bool
}

// CreateBuffer allocates size bytes of device memory. It fails with
// ErrOutOfResources when the device's memory capacity would be exceeded —
// the constraint that motivates the paper's rejection of cross-node shared
// contexts (§II).
func (c *Context) CreateBuffer(label string, size int64) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: buffer size %d", ErrInvalidValue, size)
	}
	d := c.Device
	if d.allocated+size > d.GlobalMemSize() {
		return nil, fmt.Errorf("%w: %d bytes requested, %d of %d in use",
			ErrOutOfResources, size, d.allocated, d.GlobalMemSize())
	}
	d.allocated += size
	// The store takes a pooled block only when first written, so memory
	// that is only ever moved (a bandwidth benchmark's payload) is never
	// cleared or copied.
	return &Buffer{ctx: c, label: label, st: bytepool.NewStore(int(size)), size: size}, nil
}

// MustCreateBuffer is CreateBuffer that panics on error, for examples and
// tests where allocation cannot fail.
func (c *Context) MustCreateBuffer(label string, size int64) *Buffer {
	b, err := c.CreateBuffer(label, size)
	if err != nil {
		panic(err)
	}
	return b
}

// Size reports the buffer capacity in bytes.
func (b *Buffer) Size() int64 { return b.size }

// Label reports the buffer's diagnostic name.
func (b *Buffer) Label() string { return b.label }

// Context returns the owning context.
func (b *Buffer) Context() *Context { return b.ctx }

// Release frees the device memory. Further use of the buffer fails with
// ErrReleasedObject. Releasing twice is an error, as in OpenCL where the
// reference count would go negative. Releasing a sub-buffer never affects
// the parent's allocation.
func (b *Buffer) Release() error {
	if b.released {
		return ErrReleasedObject
	}
	b.released = true
	if b.parent == nil {
		b.ctx.Device.allocated -= b.size
		if !b.hasSub && !b.mapped {
			// No sub-buffer or mapped region can alias the block: recycle
			// it, if one was taken. Stale post-release Bytes() use then
			// fails loudly instead of reading pooled memory.
			b.st.Release()
		}
	}
	return nil
}

// Bytes exposes the raw device bytes for kernels and for the verification
// paths of tests. Simulation code that is *modelling host access* must not
// use it directly — that is what Read/Write/Map commands with their PCIe
// charges are for. It materializes the buffer's store.
func (b *Buffer) Bytes() []byte { return b.Seg(0, b.size).Bytes() }

// Seg returns the window [offset, offset+size) of the buffer as a transport
// segment, without materializing the store.
func (b *Buffer) Seg(offset, size int64) bytepool.Seg {
	return b.st.Seg(int(b.off+offset), int(size))
}

// check validates the buffer and an access window.
func (b *Buffer) check(offset, size int64) error {
	if b == nil {
		return ErrInvalidBuffer
	}
	if b.released {
		return ErrReleasedObject
	}
	return rangeCheck(offset, size, b.size)
}

// node and device report the owning hardware.
func (b *Buffer) node() *cluster.Node { return b.ctx.Device.Node }
func (b *Buffer) device() *Device     { return b.ctx.Device }

package bytepool

import "unsafe"

// The data plane: device memory and the transport move bytes as segments,
// so memory that was never written crosses every layer as zeros without a
// pooled block, a clear or a copy. Nothing that charges virtual time reads
// bytes, so whether a store is materialized can never change a result.

// Store is a fixed-length byte store. It reads as zeros until it is first
// written; only then, or on the first Bytes call, does it take a pooled
// block. Stores are not safe for concurrent use.
type Store struct {
	n        int
	data     []byte // nil until materialized, and again after Release
	released bool
}

// NewStore returns an unwritten store of n bytes. It takes no block.
func NewStore(n int) *Store { return &Store{n: n} }

// Bytes materializes the store and returns its bytes; callers may read and
// write them directly. After Release it returns nil.
func (s *Store) Bytes() []byte {
	if s.data == nil && !s.released {
		s.materialize()
	}
	return s.data
}

// materialize takes a zeroed block, like make([]byte, n). Only recycled
// blocks pay for the clear; fresh allocations are already zero.
func (s *Store) materialize() {
	c := class(s.n)
	if c < 0 {
		s.data = make([]byte, s.n)
		return
	}
	if b := take(c); b != nil {
		s.data = b[:s.n]
		clear(s.data)
		return
	}
	s.data = make([]byte, s.n, 1<<c)
}

// Release returns the store's block to the pool, if it took one. The
// caller must not retain any alias to the bytes. Afterwards the store reads
// as zeros and Bytes returns nil.
func (s *Store) Release() {
	Put(s.data)
	s.data = nil
	s.released = true
}

// Seg returns the window [off, off+n) of the store.
func (s *Store) Seg(off, n int) Seg {
	if off < 0 || n < 0 || off+n > s.n {
		panic("bytepool: store window out of range")
	}
	return Seg{p: unsafe.Pointer(s), off: ^off, n: n}
}

// Seg is a window the transport reads from or writes into: host bytes, a
// window of a Store, or zeros that no memory backs (a Capture of zeros). It
// is the size of a slice header, so the transport records that carry one
// cost no more than with a []byte. The zero Seg is an empty host window.
type Seg struct {
	// p is the first host byte, the *Store of a window, or nil for zeros.
	// off tells them apart: a window or zeros store ^offset, which is
	// negative; host bytes store 0.
	p   unsafe.Pointer
	off int
	n   int
}

// Host returns a segment over host bytes.
func Host(b []byte) Seg { return Seg{p: unsafe.Pointer(unsafe.SliceData(b)), n: len(b)} }

// store returns the store of a window, or nil for host bytes and zeros.
func (g Seg) store() *Store {
	if g.off < 0 {
		return (*Store)(g.p)
	}
	return nil
}

// host returns the bytes of a host segment.
func (g Seg) host() []byte { return unsafe.Slice((*byte)(g.p), g.n) }

// Len reports the segment's length in bytes.
func (g Seg) Len() int { return g.n }

// Slice returns the sub-window [off, off+n) of the segment.
func (g Seg) Slice(off, n int) Seg {
	if off < 0 || n < 0 || off+n > g.n {
		panic("bytepool: segment window out of range")
	}
	if g.off < 0 {
		return Seg{p: g.p, off: g.off - off, n: n}
	}
	return Host(g.host()[off : off+n])
}

// zero reports whether the segment reads as zeros without being looked at:
// it is zeros or a window of an unwritten store.
func (g Seg) zero() bool {
	return g.off < 0 && (g.p == nil || g.store().data == nil)
}

// Bytes returns the segment's bytes, materializing a store window. It
// returns nil for a window of a released store, and a fresh zeroed slice,
// which nothing else aliases, for zeros.
func (g Seg) Bytes() []byte {
	if g.off >= 0 {
		return g.host()
	}
	st := g.store()
	if st == nil {
		return make([]byte, g.n)
	}
	b := st.Bytes()
	if b == nil {
		return nil
	}
	off := ^g.off
	return b[off : off+g.n : off+g.n]
}

// Copy copies min(dst.Len(), src.Len()) bytes from src to dst and returns
// the count. Zeros into an unwritten store are a no-op; zeros into written
// memory clear the window; anything else materializes dst and moves the
// bytes. Overlapping windows of one store behave like the built-in copy.
// Captured zeros have no memory to write: copying anything but zeros into
// them panics.
func Copy(dst, src Seg) int {
	n := min(dst.n, src.n)
	switch {
	case n == 0 || src.zero() && dst.zero():
	case dst.off < 0 && dst.p == nil:
		panic("bytepool: copy into captured zeros")
	case src.zero():
		clear(dst.Bytes()[:n])
	default:
		copy(dst.Bytes()[:n], src.Bytes()[:n])
	}
	return n
}

// Capture returns an eager copy of src that stays valid however src is
// reused: a pooled host block, or, when src reads as zeros, zeros that
// neither allocate nor hold a block. Free recycles it.
func Capture(src Seg) Seg {
	if src.zero() {
		return Seg{off: -1, n: src.n}
	}
	b := Get(src.n)
	copy(b, src.Bytes())
	return Host(b)
}

// Free recycles a segment returned by Capture. The caller must not use it
// afterwards. Freeing the zero Seg is a no-op.
func Free(g Seg) {
	// A captured host block came from Get(g.n), so it spans its whole size
	// class; Put needs that capacity back.
	if c := class(g.n); g.off >= 0 && c >= 0 {
		Put(unsafe.Slice((*byte)(g.p), 1<<c))
	}
}

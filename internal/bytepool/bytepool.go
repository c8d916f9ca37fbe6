// Package bytepool recycles the data-plane byte slices the simulation churns
// through: eager MPI payload copies, device buffer backing stores, and host
// staging buffers. A sweep re-runs near-identical simulations thousands of
// times; without recycling, every point reallocates (and the GC re-zeroes)
// the same few-megabyte blocks.
//
// Slices are pooled in power-of-two size classes backed by sync.Pool, so the
// pool is safe for concurrent use from parallel sweep workers and shrinks
// under GC pressure like any sync.Pool.
//
// Store and Seg (store.go) build the data plane on the pool: device memory
// that takes a block only when first written, and the copy rules that let
// never-written memory cross the transport without a clear or a copy.
package bytepool

import (
	"math/bits"
	"sync"
	"unsafe"
)

// maxClass bounds pooled slices at 1<<maxClass bytes (64 MiB, the largest
// message of the paper's sweeps). Larger requests are plainly allocated.
const maxClass = 26

// classes holds each size class's free blocks as the unsafe.Pointer of
// their first byte: a pointer fits in an interface without allocating, and
// the class gives the capacity back.
var classes [maxClass + 1]sync.Pool

// class returns the size-class index for n, or -1 if n is unpooled.
func class(n int) int {
	if n <= 0 || n > 1<<maxClass {
		return -1
	}
	return bits.Len(uint(n - 1))
}

// take returns a pooled block of size class c at full capacity, or nil.
func take(c int) []byte {
	if v := classes[c].Get(); v != nil {
		return unsafe.Slice((*byte)(v.(unsafe.Pointer)), 1<<c)
	}
	return nil
}

// Get returns a slice of length n. The contents are arbitrary bytes from a
// previous use; zeroed memory comes from a Store.
func Get(n int) []byte {
	c := class(n)
	if c < 0 {
		return make([]byte, n)
	}
	if b := take(c); b != nil {
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// Put recycles a slice obtained from Get. The caller must not retain
// any alias to b. Slices whose capacity is not an exact size class (they did
// not come from this pool) are dropped.
func Put(b []byte) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 || c > 1<<maxClass {
		return
	}
	classes[bits.Len(uint(c-1))].Put(unsafe.Pointer(unsafe.SliceData(b)))
}

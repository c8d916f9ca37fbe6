package bytepool

import "testing"

func TestGetLenAndClassCap(t *testing.T) {
	for _, n := range []int{1, 2, 3, 255, 256, 257, 1 << 20, 1<<20 + 1} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len %d", n, len(b))
		}
		if c := cap(b); c&(c-1) != 0 {
			t.Fatalf("Get(%d): cap %d is not a size class", n, c)
		}
		Put(b)
	}
}

func TestStoreZeroAfterDirtyPut(t *testing.T) {
	b := Get(1024)
	for i := range b {
		b[i] = 0xAB
	}
	Put(b)
	z := NewStore(1000).Bytes()
	for i, v := range z {
		if v != 0 {
			t.Fatalf("Store: byte %d = %#x, want 0", i, v)
		}
	}
}

func TestOversizedBypassesPool(t *testing.T) {
	n := 1<<maxClass + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("len %d", len(b))
	}
	Put(b) // must not panic, silently dropped
}

func TestPutForeignSliceDropped(t *testing.T) {
	Put(make([]byte, 100)) // cap 100 is no size class: dropped, no panic
	Put(nil)
}

func TestReuse(t *testing.T) {
	b := Get(512)
	b[0] = 42
	Put(b)
	// Not guaranteed by sync.Pool, but on a single goroutine with no GC the
	// very next Get of the class overwhelmingly returns the same block; the
	// test only asserts the round-trip is safe and length-correct.
	c := Get(300)
	if len(c) != 300 {
		t.Fatalf("len %d", len(c))
	}
	Put(c)
}

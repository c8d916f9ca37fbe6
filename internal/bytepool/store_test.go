package bytepool

import (
	"bytes"
	"testing"
)

// written reports whether s has taken a block.
func written(s *Store) bool { return s.data != nil }

// segKind builds one kind of copy endpoint: an n-byte window at offset
// guard inside a backing of n+2*guard bytes. Written backings are filled
// with fill; an unwritten store reads as zeros.
type segKind struct {
	name  string
	build func(n, guard int, fill byte) (Seg, func() []byte)
}

var segKinds = []segKind{
	{"host", func(n, guard int, fill byte) (Seg, func() []byte) {
		b := bytes.Repeat([]byte{fill}, n+2*guard)
		return Host(b[guard : guard+n]), func() []byte { return b }
	}},
	{"unwritten", func(n, guard int, _ byte) (Seg, func() []byte) {
		s := NewStore(n + 2*guard)
		return s.Seg(guard, n), func() []byte {
			if !written(s) {
				return make([]byte, s.n)
			}
			return s.Bytes()
		}
	}},
	{"written", func(n, guard int, fill byte) (Seg, func() []byte) {
		s := NewStore(n + 2*guard)
		for i := range s.Bytes() {
			s.Bytes()[i] = fill
		}
		return s.Seg(guard, n), s.Bytes
	}},
}

// TestCopyRules runs every (source kind × destination kind) pair through
// Copy: the window must read what the source read, the guard bytes around
// it must be untouched, and an unwritten destination must stay unwritten
// exactly when the source reads as zeros.
func TestCopyRules(t *testing.T) {
	const n, guard = 100, 7
	for _, sk := range segKinds {
		for _, dk := range segKinds {
			t.Run(sk.name+"->"+dk.name, func(t *testing.T) {
				src, srcAll := sk.build(n, guard, 0)
				if sk.name != "unwritten" {
					for i, b := 0, src.Bytes(); i < n; i++ {
						b[i] = byte(i + 1)
					}
				}
				want := append([]byte(nil), srcAll()[guard:guard+n]...)
				dst, dstAll := dk.build(n, guard, 0xEE)
				before := append([]byte(nil), dstAll()...)

				if got := Copy(dst, src); got != n {
					t.Fatalf("Copy = %d, want %d", got, n)
				}
				after := dstAll()
				if !bytes.Equal(after[guard:guard+n], want) {
					t.Errorf("window = %v, want %v", after[guard:guard+n], want)
				}
				if !bytes.Equal(after[:guard], before[:guard]) || !bytes.Equal(after[guard+n:], before[guard+n:]) {
					t.Errorf("guard bytes changed: %v -> %v", before, after)
				}
				if dk.name == "unwritten" && written(dst.store()) != (sk.name != "unwritten") {
					t.Errorf("destination written = %v after a %s source", written(dst.store()), sk.name)
				}
			})
		}
	}
}

// TestCopyShorterWins: Copy moves min(dst, src) bytes, like the built-in.
func TestCopyShorterWins(t *testing.T) {
	dst := make([]byte, 4)
	if got := Copy(Host(dst), Host([]byte{1, 2, 3, 4, 5, 6})); got != 4 || !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
		t.Fatalf("Copy = %d, dst %v", got, dst)
	}
	s := NewStore(8)
	if got := Copy(s.Seg(0, 8), Host([]byte{9, 9})); got != 2 || !bytes.Equal(s.Bytes(), []byte{9, 9, 0, 0, 0, 0, 0, 0}) {
		t.Fatalf("Copy = %d, store %v", got, s.Bytes())
	}
}

// TestZeroIntoUnwrittenDoesNotAllocate: moving an unwritten window into an
// unwritten store allocates nothing and leaves the store unwritten — the
// whole of a bandwidth benchmark's data movement.
func TestZeroIntoUnwrittenDoesNotAllocate(t *testing.T) {
	src, dst := NewStore(64<<20), NewStore(64<<20)
	if a := testing.AllocsPerRun(100, func() {
		Copy(dst.Seg(0, dst.n), src.Seg(0, src.n))
	}); a != 0 {
		t.Fatalf("zero copy allocates %v times per run, want 0", a)
	}
	if written(dst) || written(src) {
		t.Fatal("zero copy materialized a store")
	}
}

// TestCaptureZeroTakesNoBlock: an eager capture of an unwritten window
// holds no pooled block and still reads as zeros.
func TestCaptureZeroTakesNoBlock(t *testing.T) {
	c := Capture(NewStore(1<<20).Seg(0, 1<<20))
	if c.Len() != 1<<20 || !c.zero() {
		t.Fatalf("capture of zeros: len %d, zero %v", c.Len(), c.zero())
	}
	dst := bytes.Repeat([]byte{0xEE}, 1<<20)
	Copy(Host(dst), c)
	if !bytes.Equal(dst, make([]byte, 1<<20)) {
		t.Fatal("captured zeros did not clear the host destination")
	}
	Free(c)

	src := []byte{1, 2, 3}
	h := Capture(Host(src))
	src[0] = 9 // the capture must not alias its source
	if !bytes.Equal(h.Bytes(), []byte{1, 2, 3}) {
		t.Fatalf("capture = %v", h.Bytes())
	}
	Free(h)
	Free(Seg{})
}

// TestCaptureZeroAllocatesNothing: capturing and freeing zeros — every
// eager message of never-written memory — allocates nothing, and the
// capture keeps the segment rules: a sub-window still reads as zeros, moving
// it into an unwritten store leaves the store unwritten, Bytes is a fresh
// zeroed slice that aliases nothing, and writing into it panics.
func TestCaptureZeroAllocatesNothing(t *testing.T) {
	src := NewStore(4096).Seg(0, 4096)
	if a := testing.AllocsPerRun(100, func() { Free(Capture(src)) }); a != 0 {
		t.Fatalf("Capture+Free of zeros allocates %v times per run, want 0", a)
	}
	c := Capture(src)
	if sub := c.Slice(100, 50); sub.Len() != 50 || !sub.zero() {
		t.Fatalf("sub-window of captured zeros: len %d, zero %v", sub.Len(), sub.zero())
	}
	dst := NewStore(4096)
	Copy(dst.Seg(0, 4096), c)
	if written(dst) {
		t.Fatal("captured zeros materialized an unwritten destination")
	}
	b := c.Bytes()
	b[0] = 1
	if len(b) != 4096 || c.Bytes()[0] != 0 {
		t.Fatalf("Bytes of captured zeros: len %d, aliased write %v", len(b), c.Bytes()[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("copying bytes into captured zeros did not panic")
		}
	}()
	Copy(c, Host([]byte{1}))
}

// TestFreeRecyclesCapture: Free returns a captured block to its size class
// even when the payload length is not a power of two.
func TestFreeRecyclesCapture(t *testing.T) {
	const n = 3000 // a size class no other test in the package uses
	c := class(n)
	recycled := false
	for i := 0; i < 20 && !recycled; i++ { // see TestReleaseUnwrittenPutsNothing
		drain(c)
		Free(Capture(Host(make([]byte, n))))
		recycled = classes[c].Get() != nil
	}
	if !recycled {
		t.Fatal("Free did not recycle a captured block")
	}
}

// TestSubWindowOfUnwrittenStore: a window of a window over an unwritten
// store stays lazy until written through, and then the write is visible
// through the parent at the right offset.
func TestSubWindowOfUnwrittenStore(t *testing.T) {
	s := NewStore(32)
	sub := s.Seg(8, 16).Slice(4, 8)
	if sub.Len() != 8 || written(s) {
		t.Fatalf("sub-window: len %d, written %v", sub.Len(), written(s))
	}
	Copy(sub, NewStore(8).Seg(0, 8))
	if written(s) {
		t.Fatal("zeros into a sub-window materialized the store")
	}
	Copy(sub, Host([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	want := make([]byte, 32)
	copy(want[12:], []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if !bytes.Equal(s.Bytes(), want) {
		t.Fatalf("parent = %v, want %v", s.Bytes(), want)
	}
}

// drain empties size class c of the pool.
func drain(c int) {
	for classes[c].Get() != nil {
	}
}

// TestReleaseUnwrittenPutsNothing: releasing a store that never took a
// block leaves the pool as it was, and Bytes after Release returns nil
// rather than materializing.
func TestReleaseUnwrittenPutsNothing(t *testing.T) {
	const n = 5000 // a size class no other test in the package uses
	c := class(n)
	drain(c)
	s := NewStore(n)
	s.Release()
	if v := classes[c].Get(); v != nil {
		t.Fatal("releasing an unwritten store put a block in the pool")
	}
	if s.Bytes() != nil || written(s) {
		t.Fatal("Bytes after Release materialized the store")
	}

	// Control: a written store's block does go back. The race detector
	// makes sync.Pool drop a random quarter of puts, hence the retries.
	recycled := false
	for i := 0; i < 20 && !recycled; i++ {
		w := NewStore(n)
		w.Bytes()[0] = 1
		w.Release()
		if w.Bytes() != nil {
			t.Fatal("Bytes after Release of a written store is not nil")
		}
		recycled = classes[c].Get() != nil
	}
	if !recycled {
		t.Fatal("releasing a written store never recycled its block")
	}
}

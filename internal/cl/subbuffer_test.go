package cl

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bytepool"
	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestSubBufferAliasesParent(t *testing.T) {
	_, ctx := testRig(t)
	parent := ctx.MustCreateBuffer("parent", 1024)
	sub, err := parent.CreateSubBuffer("window", 100, 50)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if sub.Size() != 50 || sub.Parent() != parent {
		t.Fatalf("sub size=%d parent=%v", sub.Size(), sub.Parent())
	}
	sub.Bytes()[0] = 0xAA
	if parent.Bytes()[100] != 0xAA {
		t.Error("write through sub-buffer invisible in parent")
	}
	parent.Bytes()[149] = 0xBB
	if sub.Bytes()[49] != 0xBB {
		t.Error("write through parent invisible in sub-buffer")
	}
	// No extra device memory consumed.
	if got := ctx.Device.AllocatedBytes(); got != 1024 {
		t.Errorf("allocated = %d, want 1024", got)
	}
	if err := sub.Release(); err != nil {
		t.Fatalf("release sub: %v", err)
	}
	if got := ctx.Device.AllocatedBytes(); got != 1024 {
		t.Errorf("sub release changed allocation to %d", got)
	}
}

func TestSubBufferValidation(t *testing.T) {
	_, ctx := testRig(t)
	parent := ctx.MustCreateBuffer("parent", 100)
	if _, err := parent.CreateSubBuffer("bad", 90, 20); !errors.Is(err, ErrInvalidValue) {
		t.Errorf("out of range: %v", err)
	}
	sub, _ := parent.CreateSubBuffer("ok", 0, 50)
	if _, err := sub.CreateSubBuffer("nested", 0, 10); !errors.Is(err, ErrInvalidBuffer) {
		t.Errorf("nested sub-buffer: %v", err)
	}
	parent.Release()
	if _, err := parent.CreateSubBuffer("late", 0, 10); !errors.Is(err, ErrReleasedObject) {
		t.Errorf("sub of released: %v", err)
	}
}

func TestSubBufferWorksWithCommands(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q")
	parent := ctx.MustCreateBuffer("parent", 256)
	sub, _ := parent.CreateSubBuffer("w", 64, 64)
	host := bytes.Repeat([]byte{7}, 64)
	run(t, e, func(p *sim.Proc) {
		if _, err := q.EnqueueWriteBuffer(p, sub, true, 0, 64, bytepool.Host(host), cluster.Pinned, nil); err != nil {
			t.Fatalf("write: %v", err)
		}
	})
	if parent.Bytes()[64] != 7 || parent.Bytes()[127] != 7 || parent.Bytes()[63] != 0 || parent.Bytes()[128] != 0 {
		t.Fatal("sub-buffer write landed in the wrong window")
	}
}

// TestSubBufferOverUnwrittenParent: windows of a parent nobody has written
// read as zeros through every command, a copy between them moves zeros,
// and the first real write lands in the parent's storage.
func TestSubBufferOverUnwrittenParent(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q")
	parent := ctx.MustCreateBuffer("parent", 256)
	lo, _ := parent.CreateSubBuffer("lo", 0, 64)
	hi, _ := parent.CreateSubBuffer("hi", 128, 64)
	got := bytes.Repeat([]byte{0xEE}, 64)
	run(t, e, func(p *sim.Proc) {
		if _, err := q.EnqueueReadBuffer(p, hi, true, 0, 64, bytepool.Host(got), cluster.Pinned, nil); err != nil {
			t.Fatalf("read: %v", err)
		}
		if _, err := q.EnqueueCopyBuffer(hi, lo, 0, 0, 64, nil); err != nil {
			t.Fatalf("copy: %v", err)
		}
		if _, err := q.EnqueueWriteBuffer(p, hi, true, 0, 64, bytepool.Host(bytes.Repeat([]byte{7}, 64)), cluster.Pinned, nil); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := q.EnqueueCopyBuffer(hi, lo, 0, 0, 64, nil); err != nil {
			t.Fatalf("copy: %v", err)
		}
		if err := q.Finish(p); err != nil {
			t.Fatalf("finish: %v", err)
		}
	})
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("read of an unwritten window = %v, want zeros", got)
	}
	want := append(bytes.Repeat([]byte{7}, 64), make([]byte, 64)...)
	want = append(want, bytes.Repeat([]byte{7}, 64)...)
	want = append(want, make([]byte, 64)...)
	if !bytes.Equal(parent.Bytes(), want) {
		t.Fatalf("parent = %v", parent.Bytes())
	}
}

// TestReleasedBufferHasNoBytes: after Release, Bytes returns nil whether or
// not the buffer was ever written, so stale use fails loudly instead of
// reading pooled memory or materializing a fresh block.
func TestReleasedBufferHasNoBytes(t *testing.T) {
	_, ctx := testRig(t)
	for _, written := range []bool{false, true} {
		b := ctx.MustCreateBuffer("b", 4096)
		if written {
			b.Bytes()[0] = 1
		}
		if err := b.Release(); err != nil {
			t.Fatalf("release: %v", err)
		}
		if b.Bytes() != nil {
			t.Errorf("written=%v: Bytes after Release is not nil", written)
		}
	}
}

func TestFillBuffer(t *testing.T) {
	e, ctx := testRig(t)
	q := ctx.NewQueue("q")
	buf := ctx.MustCreateBuffer("b", 64)
	run(t, e, func(p *sim.Proc) {
		ev, err := q.EnqueueFillBuffer(buf, []byte{1, 2}, 8, 16, nil)
		if err != nil {
			t.Fatalf("fill: %v", err)
		}
		if err := ev.Wait(p); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	want := append(make([]byte, 8), bytes.Repeat([]byte{1, 2}, 8)...)
	want = append(want, make([]byte, 40)...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fill result %v", buf.Bytes()[:32])
	}
}

func TestFillBufferValidation(t *testing.T) {
	_, ctx := testRig(t)
	q := ctx.NewQueue("q")
	buf := ctx.MustCreateBuffer("b", 64)
	if _, err := q.EnqueueFillBuffer(buf, nil, 0, 8, nil); !errors.Is(err, ErrInvalidValue) {
		t.Errorf("empty pattern: %v", err)
	}
	if _, err := q.EnqueueFillBuffer(buf, []byte{1, 2, 3}, 0, 8, nil); !errors.Is(err, ErrInvalidValue) {
		t.Errorf("non-multiple size: %v", err)
	}
	if _, err := q.EnqueueFillBuffer(buf, []byte{1}, 60, 8, nil); !errors.Is(err, ErrInvalidValue) {
		t.Errorf("out of range: %v", err)
	}
}

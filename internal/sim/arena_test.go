package sim

import "testing"

type poolItem struct {
	a int
	b []byte
}

func TestPoolRecycles(t *testing.T) {
	var p Pool[poolItem]
	x := p.Get()
	x.a, x.b = 42, []byte("payload")
	p.Put(x)
	if p.Len() != 1 {
		t.Fatalf("Len = %d after one Put", p.Len())
	}
	y := p.Get()
	if y != x {
		t.Fatal("Get did not reuse the recycled object")
	}
	if y.a != 0 || y.b != nil {
		t.Fatalf("recycled object not zeroed: %+v", y)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after Get", p.Len())
	}
}

func TestSlabsRecycle(t *testing.T) {
	var s Slabs[*poolItem]
	if got := s.Get(); got != nil {
		t.Fatalf("empty Slabs.Get = %v, want nil", got)
	}
	x := append(s.Get(), &poolItem{a: 1}, &poolItem{a: 2})
	held := &x[0]
	s.Put(x)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after one Put", s.Len())
	}
	if *held != nil {
		t.Fatal("Put must clear element references so the collector can reclaim them")
	}
	y := s.Get()
	if len(y) != 0 || cap(y) != cap(x) || &y[:1][0] != held {
		t.Fatalf("Get did not hand back the recycled storage: len=%d cap=%d", len(y), cap(y))
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Get", s.Len())
	}
	// Zero-capacity slices carry no storage worth shelving.
	s.Put(nil)
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Put(nil)", s.Len())
	}
}

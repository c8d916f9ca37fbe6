package sim

// Free lists for simulation hot paths. Large worlds allocate one object
// per message/receive on the matching path; those objects have a fully
// engine-owned lifecycle, so they can be recycled through a free list
// instead of churning the garbage collector. A Pool is a single-shard
// (single-goroutine) structure: one simulated process runs per shard at a
// time, so no host locking is needed — never share one across shards.

// Pool is a typed free list. Get returns a zeroed object (fresh or
// recycled); Put zeroes the object and shelves it for reuse. Unlike
// sync.Pool it never drops entries and has no locking — it is deterministic
// and single-shard by construction.
type Pool[T any] struct {
	free []*T
}

// Get returns a zeroed *T, reusing a recycled one when available.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

// Put zeroes x and adds it to the free list. The caller must guarantee no
// other reference to x survives.
func (p *Pool[T]) Put(x *T) {
	var zero T
	*x = zero
	p.free = append(p.free, x)
}

// Len reports how many recycled objects are shelved.
func (p *Pool[T]) Len() int { return len(p.free) }

// Slabs is a free list of reusable slices. Get returns an empty slice with
// whatever capacity a previous Put shelved; Put clears the slice (releasing
// element references to the collector) and shelves its storage. The
// cross-partition channels recycle their struct-of-arrays event batches
// through one Slabs per element type, so steady-state delivery of cross
// events allocates nothing. Unlike a Pool a Slabs may be guarded by a host
// mutex and shared — it holds no per-element state.
type Slabs[T any] struct {
	free [][]T
}

// Get returns a length-zero slice, reusing shelved capacity when available.
func (s *Slabs[T]) Get() []T {
	if n := len(s.free); n > 0 {
		x := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return x
	}
	return nil
}

// Put clears x and shelves its storage for reuse. The caller must guarantee
// no other reference to x's backing array survives.
func (s *Slabs[T]) Put(x []T) {
	if cap(x) == 0 {
		return
	}
	clear(x[:cap(x)])
	s.free = append(s.free, x[:0])
}

// Len reports how many recycled slabs are shelved.
func (s *Slabs[T]) Len() int { return len(s.free) }

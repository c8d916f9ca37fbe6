package sim

import (
	"fmt"
	"time"
)

// Link models a bandwidth-limited, FIFO, store-and-forward transport
// resource: a PCIe direction, a NIC transmit or receive path. A transfer
// occupies the link exclusively for its serialization time; concurrent
// transfers queue in request order, which is how contention (two messages
// sharing a NIC, a halo exchange colliding with a pipelined block) arises in
// the simulation.
type Link struct {
	eng   *Engine
	name  string
	bw    float64 // bytes per second; 0 means infinitely fast
	mu    Mutex
	busy  time.Duration // total occupied time, for utilization reporting
	moved int64         // total bytes transferred
	obs   LinkObserver  // optional occupancy observer
}

// LinkObserver receives one notification per completed occupancy interval
// of an observed link: a transfer's serialization time, an Occupy hold, or
// an externally timed AddBusy charge. The observability layer
// (internal/trace) uses this to build per-resource timelines and
// utilization metrics.
type LinkObserver interface {
	LinkBusy(link string, bytes int64, start, end Time)
}

// TaggedLinkObserver is an optional extension of LinkObserver: links whose
// observer also implements it receive tagged occupancy notifications from
// the *Tagged charge variants, carrying the resource class of the charge
// (e.g. "h2d.pinned", "wire", "mpi.sw", "compute") and the name of the
// process that made it. Untagged charges still arrive via LinkBusy.
type TaggedLinkObserver interface {
	LinkObserver
	LinkBusyTagged(link, tag, proc string, bytes int64, start, end Time)
}

// SetObserver installs an occupancy observer (nil to remove).
func (l *Link) SetObserver(o LinkObserver) { l.obs = o }

// Observed reports whether an observer is installed, so callers can skip
// building charge metadata (process-name strings) that nothing would see.
func (l *Link) Observed() bool { return l.obs != nil }

// NewLink creates a link with the given bandwidth in bytes per second.
func NewLink(e *Engine, name string, bytesPerSecond float64) *Link {
	if bytesPerSecond < 0 {
		panic("sim: negative link bandwidth")
	}
	return &Link{eng: e, name: name, bw: bytesPerSecond, mu: Mutex{eng: e, label: name, link: true}}
}

// Name reports the link's name.
func (l *Link) Name() string { return l.name }

// Bandwidth reports the configured bandwidth in bytes per second.
func (l *Link) Bandwidth() float64 { return l.bw }

// SerializationTime reports how long n bytes occupy the link, excluding
// queueing.
func (l *Link) SerializationTime(n int64) time.Duration {
	if l.bw == 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.bw * 1e9)
}

// Transfer moves n bytes across the link: it waits for the link FIFO, then
// occupies it for the serialization time plus extra (per-operation overhead
// such as protocol processing that also occupies the resource). It returns
// the instant the last byte left the link.
func (l *Link) Transfer(p *Proc, n int64, extra time.Duration) Time {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative transfer size %d on link %s", n, l.name))
	}
	d := l.SerializationTime(n) + extra
	l.mu.Lock(p)
	start := p.Now()
	if d > 0 {
		p.Sleep(d)
	}
	l.busy += d
	l.moved += n
	l.mu.Unlock(p)
	end := p.Now()
	if l.obs != nil && end > start {
		l.obs.LinkBusy(l.name, n, start, end)
	}
	return end
}

// Occupy holds the link for duration d without accounting any bytes, for
// modelling control operations that serialize on the resource.
func (l *Link) Occupy(p *Proc, d time.Duration) {
	l.mu.Lock(p)
	start := p.Now()
	if d > 0 {
		p.Sleep(d)
	}
	l.busy += d
	l.mu.Unlock(p)
	if l.obs != nil && d > 0 {
		l.obs.LinkBusy(l.name, 0, start, p.Now())
	}
}

// OccupyTagged is Occupy with a resource-class tag and byte accounting.
// The occupancy is reported to a TaggedLinkObserver with the tag and the
// occupying process's name; a plain LinkObserver sees it as LinkBusy.
// Virtual time is charged identically to Occupy.
func (l *Link) OccupyTagged(p *Proc, d time.Duration, tag string, bytes int64) {
	l.mu.Lock(p)
	start := p.Now()
	if d > 0 {
		p.Sleep(d)
	}
	l.busy += d
	l.moved += bytes
	l.mu.Unlock(p)
	if l.obs == nil || d <= 0 {
		return
	}
	if to, ok := l.obs.(TaggedLinkObserver); ok {
		to.LinkBusyTagged(l.name, tag, p.Name(), bytes, start, p.Now())
		return
	}
	l.obs.LinkBusy(l.name, bytes, start, p.Now())
}

// Lock acquires exclusive use of the link (FIFO). Use with Unlock and
// AddBusy to model transfers that span multiple links concurrently, such as
// a cut-through network hop holding the sender's TX and receiver's RX for
// the same interval. Prefer Transfer or Occupy for single-link charges.
func (l *Link) Lock(p *Proc) { l.mu.Lock(p) }

// LockStep is Lock for a step process (see Mutex.LockStep).
func (l *Link) LockStep(p *Proc) bool { return l.mu.LockStep(p) }

// Unlock releases the link.
func (l *Link) Unlock(p *Proc) { l.mu.Unlock(p) }

// AddBusy records utilization accounting for externally timed occupancy.
// The occupancy interval reported to an observer is the d preceding the
// current instant, matching how callers charge after sleeping.
func (l *Link) AddBusy(d time.Duration, bytes int64) {
	l.busy += d
	l.moved += bytes
	now := l.eng.now
	if l.obs != nil && d > 0 {
		l.obs.LinkBusy(l.name, bytes, now.Add(-d), now)
	}
}

// ChargeTagged records utilization accounting for an externally timed,
// explicitly intervalled occupancy, reported with a resource-class tag and
// the charging process's name. Unlike AddBusy the caller supplies the
// interval, so one sleep can be split into adjacent differently-tagged legs
// (see mpi chargeWire) without changing virtual time.
func (l *Link) ChargeTagged(tag, proc string, bytes int64, start, end Time) {
	d := end.Sub(start)
	if d < 0 {
		return
	}
	l.busy += d
	l.moved += bytes
	if l.obs == nil || d <= 0 {
		return
	}
	if to, ok := l.obs.(TaggedLinkObserver); ok {
		to.LinkBusyTagged(l.name, tag, proc, bytes, start, end)
		return
	}
	l.obs.LinkBusy(l.name, bytes, start, end)
}

// Stats reports the total occupied time and bytes moved so far.
func (l *Link) Stats() (busy time.Duration, bytes int64) { return l.busy, l.moved }

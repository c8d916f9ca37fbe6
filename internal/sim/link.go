package sim

import "time"

// Link models a bandwidth-limited, FIFO, store-and-forward transport
// resource: a PCIe direction, a NIC transmit or receive path. A transfer
// occupies the link exclusively for its serialization time; concurrent
// transfers queue in request order, which is how contention (two messages
// sharing a NIC, a halo exchange colliding with a pipelined block) arises in
// the simulation. A link keeps no accounting of its own: utilization is
// derived from the occupancies its observer hears.
type Link struct {
	name string
	bw   float64 // bytes per second; 0 means infinitely fast
	mu   Mutex
	obs  LinkObserver // optional occupancy observer
}

// LinkObserver receives one notification per non-empty occupancy interval
// of an observed link, whether held through Occupy or charged through
// Charge: the resource class of the charge (e.g. "h2d.pinned", "wire",
// "mpi.sw", "compute"), the name of the process that made it, and the bytes
// it moved. The observability layer (internal/trace) uses this to build
// per-resource timelines, utilization metrics and charge edges.
type LinkObserver interface {
	LinkBusy(link, tag, proc string, bytes int64, start, end Time)
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
	return &Link{name: name, bw: bytesPerSecond, mu: Mutex{eng: e, label: name, link: true}}
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

// Occupy waits for the link FIFO, then holds the link for duration d on
// behalf of process p, charging bytes under the resource-class tag. Callers
// size d themselves — SerializationTime plus any per-operation overhead that
// also occupies the resource.
func (l *Link) Occupy(p *Proc, d time.Duration, tag string, bytes int64) {
	l.mu.Lock(p)
	start := p.Now()
	if d > 0 {
		p.Sleep(d)
	}
	l.mu.Unlock(p)
	if l.obs != nil && d > 0 {
		l.obs.LinkBusy(l.name, tag, p.Name(), bytes, start, p.Now())
	}
}

// Lock acquires exclusive use of the link (FIFO), blocking p: the
// coroutine twin of LockStep, which the step-process tests replay against.
// A coroutine charging a single link wants Occupy.
func (l *Link) Lock(p *Proc) { l.mu.Lock(p) }

// LockStep is Lock for a step process (see Mutex.LockStep). With Unlock and
// Charge it models transfers that span multiple links concurrently, such as
// a cut-through network hop holding the sender's TX and receiver's RX for
// the same interval.
func (l *Link) LockStep(p *Proc) bool { return l.mu.LockStep(p) }

// Unlock releases the link.
func (l *Link) Unlock(p *Proc) { l.mu.Unlock(p) }

// Charge reports an externally timed occupancy [start, end) of a link the
// caller held, with a resource-class tag and the charging process's name.
// The caller supplies the interval, so one hold can be split into adjacent
// differently-tagged legs (see mpi chargeWire) without changing virtual
// time.
func (l *Link) Charge(tag, proc string, bytes int64, start, end Time) {
	if l.obs != nil && end > start {
		l.obs.LinkBusy(l.name, tag, proc, bytes, start, end)
	}
}

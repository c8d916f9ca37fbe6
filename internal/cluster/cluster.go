// Package cluster models the hardware of a GPU cluster: per-node CPU, GPU,
// PCIe links, NICs, and the interconnect between nodes. It supplies the cost
// parameters (bandwidths, latencies, per-operation overheads) that the
// OpenCL-like runtime (internal/cl) and MPI-like runtime (internal/mpi)
// charge against virtual time.
//
// Two preset systems mirror Table I of the clMPI paper: Cichlid (four nodes,
// Tesla C2070, Gigabit Ethernet) and RICC (one hundred nodes, Tesla C1060,
// InfiniBand DDR via IPoIB). All constants carry the reasoning behind their
// values; absolute fidelity to the 2013 testbeds is not claimed — the
// reproduction targets the relative regimes (network-bound vs PCIe-bound)
// that drive every figure in the paper's evaluation.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// HostMemKind identifies the host-side memory a PCIe transfer stages
// through; the three kinds correspond to the paper's pinned, mapped, and
// naive (pageable) data-transfer implementations (§III).
type HostMemKind int

const (
	// Pageable is ordinary malloc'd host memory; the driver bounce-buffers
	// it, halving effective PCIe bandwidth.
	Pageable HostMemKind = iota
	// Pinned is page-locked host memory; DMA runs at full PCIe rate but
	// registering a buffer costs significant setup time.
	Pinned
	// Mapped is device memory mapped into the host address space
	// (clEnqueueMapBuffer); low setup cost, reduced sustained bandwidth.
	Mapped
	// Peer is no host memory at all: the NIC DMAs against device memory
	// directly (GPUDirect-style). The PCIe hop still serializes on the
	// device's slot, at the peer-to-peer rate.
	Peer
)

func (k HostMemKind) String() string {
	switch k {
	case Pageable:
		return "pageable"
	case Pinned:
		return "pinned"
	case Mapped:
		return "mapped"
	case Peer:
		return "peer"
	default:
		return fmt.Sprintf("HostMemKind(%d)", int(k))
	}
}

// CPUSpec describes a node's host processor.
type CPUSpec struct {
	Model   string
	Sockets int
	Cores   int     // per socket
	GHz     float64 // base clock
	GFLOPS  float64 // sustained double-precision throughput for host phases
	MemBW   float64 // host memory copy bandwidth, bytes/s
}

// GPUSpec describes a node's accelerator and its PCIe behaviour.
type GPUSpec struct {
	Model           string
	MemBytes        int64
	SustainedGFLOPS float64 // sustained single-precision rate for stencil-like kernels

	// PCIe bandwidths per direction, bytes/s, by host memory kind.
	PinnedBW   float64
	PageableBW float64
	MappedBW   float64
	// PeerBW is the NIC↔GPU peer-to-peer DMA rate (GPUDirect-style); 0
	// means the GPU cannot be a peer DMA target. Peer transactions cross
	// the PCIe root complex, so sustained rates sit slightly below the
	// pinned host DMA rate on most platforms.
	PeerBW float64

	// DMALatency is charged once per PCIe transfer (descriptor setup).
	DMALatency time.Duration
	// PinSetup is the extra cost of registering a fresh pinned staging
	// buffer; the one-shot "pinned" strategy pays it per transfer, while
	// the pipelined strategy preallocates its ring and does not.
	PinSetup time.Duration
	// MapSetup is the cost of clEnqueueMapBuffer/clEnqueueUnmapMemObject
	// bookkeeping, paid per map or unmap.
	MapSetup time.Duration
	// PeerSetup is the one-time cost of exposing a device memory region
	// to the NIC for peer DMA (BAR mapping and NIC registration), paid
	// once per peer transfer.
	PeerSetup time.Duration
	// KernelLaunch is the fixed host→device launch overhead per kernel.
	KernelLaunch time.Duration
}

// PCIeBW returns the host-device bandwidth for the given memory kind.
func (g *GPUSpec) PCIeBW(kind HostMemKind) float64 {
	switch kind {
	case Pinned:
		return g.PinnedBW
	case Mapped:
		return g.MappedBW
	case Peer:
		return g.PeerBW
	default:
		return g.PageableBW
	}
}

// DiskSpec describes a node's local storage device.
type DiskSpec struct {
	Model string
	BW    float64       // sequential bytes/s
	Seek  time.Duration // per-operation positioning cost
}

// NICSpec describes a node's network interface and the software stack above
// it (the per-message overhead covers the MPI library's envelope handling).
type NICSpec struct {
	Model       string
	BW          float64       // sustained bytes/s per direction
	WireLatency time.Duration // first-byte latency across the fabric
	MsgOverhead time.Duration // per-message software cost on each side
	// Backplane is the switch's aggregate capacity in bytes/s shared by
	// all concurrent transfers; 0 models a non-blocking fabric. An
	// oversubscribed fat-tree sets this below nodes×BW, making dense
	// communication patterns (all-to-all, wide fan-in) contend beyond
	// their endpoint NICs.
	Backplane float64
	// PeerDMA reports whether the NIC can DMA directly against device
	// memory (GPUDirect-style); the clmpi peer strategy requires it.
	PeerDMA bool
}

// System is a complete cluster configuration (one row of Table I).
type System struct {
	Name     string
	MaxNodes int
	CPU      CPUSpec
	GPU      GPUSpec
	NIC      NICSpec
	Disk     DiskSpec

	// Table I bookkeeping fields, reported by clmpi-sysinfo.
	OS, Compiler, Driver, OpenCL, MPI string

	// DefaultStrategy is the small-message transfer implementation the
	// clMPI runtime selects on this system (§V-B: mapped on Cichlid,
	// pinned on RICC).
	DefaultStrategy string
}

// GPUUnit is one physical accelerator in a node: its own PCIe slot (both
// directions) and an exclusive compute unit. The paper's testbeds have one
// GPU per node, but §IV-A explicitly supports multiple communicator devices
// per MPI process (disambiguated by tags), so the model allows extra units
// via Node.AddGPU.
type GPUUnit struct {
	Index      int
	H2D        *sim.Link // PCIe host→device
	D2H        *sim.Link // PCIe device→host
	GPUCompute *sim.Link // serializes kernels, as on Fermi/Tesla hardware
}

// Node is one machine of an instantiated cluster: its PCIe directions and
// NIC directions are contended FIFO resources, and each GPU has an
// exclusive compute unit.
type Node struct {
	Index int
	Sys   *System

	// H2D, D2H and GPUCompute alias the first GPU unit's resources, the
	// common single-GPU case.
	H2D        *sim.Link
	D2H        *sim.Link
	GPUCompute *sim.Link

	TX *sim.Link // NIC transmit
	RX *sim.Link // NIC receive

	// GPUs lists the node's accelerators; GPUs[0] always exists.
	GPUs []*GPUUnit

	// Disk is the node's local storage (see internal/storage), used by
	// the extension's file I/O commands (§VI future work).
	Disk *storage.Disk

	eng *sim.Engine
}

// AddGPU installs an additional accelerator of the node's GPU spec (its own
// PCIe slot and compute unit) and returns it.
func (nd *Node) AddGPU() *GPUUnit {
	k := len(nd.GPUs)
	name := fmt.Sprintf("node%d.gpu%d", nd.Index, k)
	u := &GPUUnit{
		Index:      k,
		H2D:        sim.NewLink(nd.eng, name+".h2d", 0),
		D2H:        sim.NewLink(nd.eng, name+".d2h", 0),
		GPUCompute: sim.NewLink(nd.eng, name+".compute", 0),
	}
	nd.GPUs = append(nd.GPUs, u)
	return u
}

// Cluster is an instantiated system: n nodes attached to one simulation.
type Cluster struct {
	Eng   *sim.Engine
	Sys   System
	Nodes []*Node

	// Backplane, when non-nil, limits the number of concurrent full-rate
	// paths through the switch (NICSpec.Backplane / NICSpec.BW slots); a
	// transfer holds one path for its duration. Nil means non-blocking.
	Backplane *sim.Semaphore
}

// CheckNodes is the one node-count rule: an n-node world needs at least one
// node and at most MaxNodes (0 = unbounded). The run packages ask it before
// building a cluster, and New panics on what it rejects.
func (s System) CheckNodes(n int) error {
	switch {
	case n < 1:
		return fmt.Errorf("cluster: need at least one node (got %d)", n)
	case s.MaxNodes > 0 && n > s.MaxNodes:
		return fmt.Errorf("cluster: system %s has only %d nodes, requested %d", s.Name, s.MaxNodes, n)
	}
	return nil
}

// CheckPartitioned reports whether the system's clusters can be split over
// a partitioned engine: no partition can own a shared switch backplane.
// NewPartial panics on what it rejects.
func (s System) CheckPartitioned() error {
	if s.NIC.Backplane > 0 {
		return fmt.Errorf("cluster: system %s has a shared backplane, which a partitioned world cannot split", s.Name)
	}
	return nil
}

// New builds a cluster of n nodes of the given system on engine e.
func New(e *sim.Engine, sys System, n int) *Cluster {
	return NewPartial(e, sys, n, 0, n)
}

// NewPartial builds one partition of an n-node cluster: only nodes in
// [lo, hi) are instantiated (entries outside the range stay nil), all on
// engine e — typically one shard of a sim.PartitionedEngine. Indices and
// cost parameters are identical to the full cluster, so per-node modelling
// code is partition-agnostic. A shared switch backplane is a global
// resource and cannot be split conservatively, so systems with one reject
// partial construction.
func NewPartial(e *sim.Engine, sys System, n, lo, hi int) *Cluster {
	if err := sys.CheckNodes(n); err != nil {
		panic(err.Error())
	}
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("cluster: node range [%d,%d) invalid for %d nodes", lo, hi, n))
	}
	if hi-lo < n {
		if err := sys.CheckPartitioned(); err != nil {
			panic(err.Error())
		}
	}
	c := &Cluster{Eng: e, Sys: sys, Nodes: make([]*Node, n)}
	if sys.NIC.Backplane > 0 {
		paths := int(sys.NIC.Backplane / sys.NIC.BW)
		if paths < 1 {
			paths = 1
		}
		c.Backplane = sim.NewSemaphore(e, sys.Name+".backplane", paths)
	}
	for i := lo; i < hi; i++ {
		name := fmt.Sprintf("node%d", i)
		nd := &Node{
			Index: i,
			Sys:   &c.Sys,
			TX:    sim.NewLink(e, name+".tx", sys.NIC.BW),
			RX:    sim.NewLink(e, name+".rx", sys.NIC.BW),
			Disk:  storage.NewDisk(e, name, sys.Disk.BW, sys.Disk.Seek),
			eng:   e,
		}
		u := nd.AddGPU()
		nd.H2D, nd.D2H, nd.GPUCompute = u.H2D, u.D2H, u.GPUCompute
		c.Nodes[i] = nd
	}
	return c
}

// Observe installs o on every contended link of the cluster: each node's
// NIC transmit/receive paths and each GPU unit's PCIe directions and
// compute unit. Call it before the simulation runs; GPUs added afterwards
// via AddGPU are not covered retroactively. On a partial cluster only the
// instantiated nodes are observed.
func (c *Cluster) Observe(o sim.LinkObserver) {
	for _, nd := range c.Nodes {
		if nd == nil {
			continue
		}
		nd.TX.SetObserver(o)
		nd.RX.SetObserver(o)
		for _, u := range nd.GPUs {
			u.H2D.SetObserver(o)
			u.D2H.SetObserver(o)
			u.GPUCompute.SetObserver(o)
		}
	}
}

// PCIeTime reports how long a host↔device transfer of n bytes through memory
// of the given kind occupies the PCIe link (excluding queueing and excluding
// one-time setup such as pinning).
func (nd *Node) PCIeTime(n int64, kind HostMemKind) time.Duration {
	if n <= 0 {
		return nd.Sys.GPU.DMALatency
	}
	bw := nd.Sys.GPU.PCIeBW(kind)
	return nd.Sys.GPU.DMALatency + time.Duration(float64(n)/bw*1e9)
}

// HostToDevice charges a host→device copy of n bytes staged through memory
// of the given kind on the first GPU unit, returning when the copy
// completes.
func (nd *Node) HostToDevice(p *sim.Proc, n int64, kind HostMemKind) {
	nd.HostToDeviceOn(nd.GPUs[0], p, n, kind)
}

// DeviceToHost charges a device→host copy of n bytes on the first GPU unit.
func (nd *Node) DeviceToHost(p *sim.Proc, n int64, kind HostMemKind) {
	nd.DeviceToHostOn(nd.GPUs[0], p, n, kind)
}

// HostToDeviceOn charges a host→device copy on a specific GPU unit's PCIe
// slot.
func (nd *Node) HostToDeviceOn(u *GPUUnit, p *sim.Proc, n int64, kind HostMemKind) {
	u.H2D.Occupy(p, nd.PCIeTime(n, kind), "h2d."+kind.String(), n)
}

// DeviceToHostOn charges a device→host copy on a specific GPU unit's PCIe
// slot.
func (nd *Node) DeviceToHostOn(u *GPUUnit, p *sim.Proc, n int64, kind HostMemKind) {
	u.D2H.Occupy(p, nd.PCIeTime(n, kind), "d2h."+kind.String(), n)
}

// NetSendTime reports how long n bytes occupy the sender's NIC.
func (nd *Node) NetSendTime(n int64) time.Duration {
	return nd.Sys.NIC.MsgOverhead + nd.TX.SerializationTime(n)
}

package cl

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Device is a compute device: one of a node's GPUs. The paper's testbeds
// have one Tesla per node (NewDevice), but §IV-A's multiple-communicator-
// devices-per-process case is supported through NewDeviceForUnit on nodes
// extended with cluster.Node.AddGPU.
type Device struct {
	eng  *sim.Engine
	Node *cluster.Node
	Unit *cluster.GPUUnit
	name string

	allocated int64 // device memory accounting
}

// NewDevice wraps a cluster node's first GPU as an OpenCL-style device.
func NewDevice(e *sim.Engine, node *cluster.Node) *Device {
	return NewDeviceForUnit(e, node, node.GPUs[0])
}

// NewDeviceForUnit wraps a specific GPU unit of the node.
func NewDeviceForUnit(e *sim.Engine, node *cluster.Node, unit *cluster.GPUUnit) *Device {
	return &Device{
		eng: e, Node: node, Unit: unit,
		name: fmt.Sprintf("dev%d.%d(%s)", node.Index, unit.Index, node.Sys.GPU.Model),
	}
}

// HostToDevice charges a host→device copy on this device's PCIe slot.
func (d *Device) HostToDevice(p *sim.Proc, n int64, kind cluster.HostMemKind) {
	d.Node.HostToDeviceOn(d.Unit, p, n, kind)
}

// DeviceToHost charges a device→host copy on this device's PCIe slot.
func (d *Device) DeviceToHost(p *sim.Proc, n int64, kind cluster.HostMemKind) {
	d.Node.DeviceToHostOn(d.Unit, p, n, kind)
}

// Name reports a diagnostic device name.
func (d *Device) Name() string { return d.name }

// GlobalMemSize reports the device memory capacity in bytes.
func (d *Device) GlobalMemSize() int64 { return d.Node.Sys.GPU.MemBytes }

// AllocatedBytes reports currently allocated device memory.
func (d *Device) AllocatedBytes() int64 { return d.allocated }

// Context owns resources — buffers, queues, events — for one device, like a
// cl_context. (Multi-device shared contexts, which §II of the paper argues
// against for inter-node sharing, are intentionally unsupported.)
type Context struct {
	eng    *sim.Engine
	Device *Device
	label  string

	// obs, when set, hears every command of every queue of the context and
	// every host-thread wait on its events.
	obs Observer
}

// Observer receives one context's command notifications, from in-order and
// out-of-order queues alike, plus the host thread's interactions with the
// event graph. The tracer (internal/trace) builds Fig. 4 timelines from it,
// and critical-path analysis the causal edges: a command's interval is its
// event's own profiling stamps, and the enqueue and wait reports recover
// host program order — the serialization imposed by the application thread
// itself, which OpenCL's event DAG does not express.
type Observer interface {
	// CommandEnqueued reports that process proc enqueued the command whose
	// completion ev tracks. It runs before the command can execute.
	CommandEnqueued(proc string, ev *Event)
	// CommandDone reports that the command ev tracks, run by worker
	// process proc of the queue labelled lane after its wait list waits,
	// finished at end; it started at ev.StartedAt. inOrder tells an
	// in-order queue from an out-of-order one. It runs before ev
	// completes, so before any dependent can observe the completion.
	CommandDone(lane string, inOrder bool, ev *Event, waits []*Event, proc string, end sim.Time)
	// WaitReturned reports that process proc's Wait on ev returned.
	WaitReturned(proc string, ev *Event)
}

// SetObserver installs the context's observer (nil to remove). It covers
// every queue of the context, including queues created before the call.
func (c *Context) SetObserver(o Observer) { c.obs = o }

// NewContext creates a context for the device.
func NewContext(d *Device, label string) *Context {
	return &Context{eng: d.eng, Device: d, label: label}
}

// Engine returns the simulation engine the context runs on.
func (c *Context) Engine() *sim.Engine { return c.eng }

// Label reports the context's diagnostic name.
func (c *Context) Label() string { return c.label }

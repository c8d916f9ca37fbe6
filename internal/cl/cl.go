// Package cl implements an OpenCL-like compute runtime on top of the
// virtual-time simulation engine (internal/sim) and the hardware model
// (internal/cluster).
//
// The runtime reproduces the OpenCL 1.1 execution model the clMPI paper
// builds on: a host thread manages devices through command queues (in-order,
// as the paper uses, or out-of-order); commands carry event wait lists and
// publish event objects whose profiling stamps a per-context Observer
// reads; user events let external activities participate in command
// dependencies. Data transfers and kernels move real bytes (so results are
// testable) while charging virtual time according to the node's PCIe and
// GPU cost model.
//
// Deliberate simplifications, none of which the paper's evaluation touches:
// one device per context, and kernels expressed as Go functions with an
// explicit cost instead of compiled OpenCL C.
package cl

import (
	"errors"
	"fmt"
)

// Error values mirror the OpenCL error codes the modelled API can produce.
var (
	ErrInvalidValue     = errors.New("cl: invalid value")
	ErrInvalidBuffer    = errors.New("cl: invalid mem object")
	ErrInvalidEvent     = errors.New("cl: invalid event")
	ErrInvalidQueue     = errors.New("cl: invalid command queue")
	ErrInvalidKernel    = errors.New("cl: invalid kernel")
	ErrOutOfResources   = errors.New("cl: out of resources")
	ErrReleasedObject   = errors.New("cl: use of released object")
	ErrMapped           = errors.New("cl: buffer already mapped")
	ErrNotMapped        = errors.New("cl: buffer is not mapped")
	ErrQueueShutDown    = errors.New("cl: command queue shut down")
	ErrExecStatusError  = errors.New("cl: command terminated abnormally")
	ErrEventNotUserMade = errors.New("cl: SetStatus on non-user event")
)

// rangeCheck validates an (offset,size) window against a buffer of length n.
func rangeCheck(offset, size, n int64) error {
	if offset < 0 || size < 0 || offset+size > n {
		return fmt.Errorf("%w: range [%d,%d) outside buffer of %d bytes", ErrInvalidValue, offset, offset+size, n)
	}
	return nil
}

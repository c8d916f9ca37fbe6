package mpi

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// reqOwner is the operation a request is embedded in — a message, a
// receive op, a cross send or a user operation. It names and numbers the
// request, so the label string, pure diagnostics read only by deadlock
// reports and Label, is formatted on demand instead of once per operation.
type reqOwner interface {
	opLabel() string
	opSeq() uint64
}

// Request tracks a nonblocking operation, like MPI_Request. It completes at
// most once; Wait and Test observe the final status and error. A request
// is embedded in the operation that owns it, so it lives exactly as long as
// its holder and costs no allocation of its own. Its completion
// trigger fires with the operation's error as payload, which is where
// Wait and Test read the error from.
type Request struct {
	op     reqOwner
	done   sim.Trigger
	status Status
}

// Seq reports the sequence number of the message (sends) or receive
// operation (receives) behind this request, matching the Seq field of the
// world's MsgEvent notifications, or 0 for requests with no transport
// operation (user requests).
func (r *Request) Seq() uint64 { return r.op.opSeq() }

// userOp is the operation behind a user request: a label, and no transport
// sequence.
type userOp struct {
	req   Request
	label string
}

func (u *userOp) opLabel() string { return u.label }
func (u *userOp) opSeq() uint64   { return 0 }

// NewUserRequest creates an unattached request plus its completion function,
// for runtimes that layer custom transfers over MPI (the CL_MEM hook). The
// completion function may be called once, from a simulated process.
func NewUserRequest(w *World, label string) (*Request, func(status Status, err error)) {
	u := &userOp{label: label}
	u.req.init(w.eng, u)
	r := &u.req
	return r, func(status Status, err error) { r.complete(status, err) }
}

// init readies the request embedded in operation op.
func (r *Request) init(e *sim.Engine, op reqOwner) {
	r.op = op
	r.done.Init(e, r)
}

// complete finishes the request now.
func (r *Request) complete(status Status, err error) {
	r.status = status
	r.done.Fire(err)
}

// completeAfter finishes the request d of virtual time from now.
func (r *Request) completeAfter(d time.Duration, status Status, err error) {
	r.status = status
	r.done.FireAfter(d, err)
}

// err reports the operation's error once the request has completed.
func (r *Request) err() error {
	err, _ := r.done.Payload().(error)
	return err
}

// Label reports the request's diagnostic name.
func (r *Request) Label() string { return r.op.opLabel() }

// sendLabel formats a send request's label.
func sendLabel(ssend bool, src, dst, tag int) string {
	kind := "isend"
	if ssend {
		kind = "ssend"
	}
	return fmt.Sprintf("%s %d->%d tag %d", kind, src, dst, tag)
}

// WaitLabel implements sim.Labeler: the deadlock-report label of a process
// blocked on this request, identical to the string an eagerly labelled
// request trigger would have carried.
func (r *Request) WaitLabel() string { return "trigger request " + r.Label() }

// Wait blocks process p until the operation completes, returning the
// receive status (zero Status for sends) and the operation's error.
func (r *Request) Wait(p *sim.Proc) (Status, error) {
	r.done.Wait(p)
	return r.status, r.err()
}

// Test reports without blocking whether the operation has completed, and if
// so its status and error, like MPI_Test.
func (r *Request) Test() (bool, Status, error) {
	if !r.done.Fired() {
		return false, Status{}, nil
	}
	return true, r.status, r.err()
}

// Done exposes the completion trigger so other runtimes can chain on it —
// this is what clCreateEventFromMPIRequest builds on (§IV-C of the paper).
func (r *Request) Done() *sim.Trigger { return &r.done }

// Waitall blocks until every request completes, returning the first error
// in slice order, like MPI_Waitall. Nil requests are skipped.
func Waitall(p *sim.Proc, reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Waitany blocks until at least one request has completed and returns its
// index plus its status and error, like MPI_Waitany. Completed requests are
// reported in slice order when several are already done. All-nil input
// returns -1 immediately.
func Waitany(p *sim.Proc, reqs ...*Request) (int, Status, error) {
	live := 0
	for _, r := range reqs {
		if r != nil {
			live++
		}
	}
	if live == 0 {
		return -1, Status{}, nil
	}
	for {
		for i, r := range reqs {
			if r == nil {
				continue
			}
			if done, st, err := r.Test(); done {
				return i, st, err
			}
		}
		// Park until the first completion among the live requests; the
		// wait on a single request returns when that one fires, after
		// which the scan above may also discover earlier-indexed winners
		// completed at the same instant.
		any := sim.NewTriggerLazy(p.Engine(), sim.Label("waitany"))
		for _, r := range reqs {
			if r != nil {
				r.done.Chain(any)
			}
		}
		any.Wait(p)
	}
}

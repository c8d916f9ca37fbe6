package clmpi

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// deliveries records the instant of every MsgDelivered event by receive
// sequence.
type deliveries map[uint64]sim.Time

func (d deliveries) MessageEvent(ev mpi.MsgEvent) {
	if ev.Kind == mpi.MsgDelivered {
		d[ev.RecvSeq] = ev.At
	}
}

// TestEventFromMPIRequestPayload pins the payload rule of a receive's
// completion trigger: it fires with the request's error, never with the
// transport's message, so an event made from it completes with that error
// at the instant the message was delivered.
func TestEventFromMPIRequestPayload(t *testing.T) {
	cases := []struct {
		name    string
		src     int           // the sending rank; 0 is a self-message
		delay   time.Duration // how long the receiver waits before posting
		recvLen int
		wantErr error
	}{
		{"eager receive first", 1, 0, 64, nil},
		{"eager payload first", 1, time.Millisecond, 64, nil},
		{"self-message", 0, 0, 64, nil},
		{"truncated", 1, 0, 16, mpi.ErrTruncate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, cluster.RICC(), 2, Options{})
			seen := deliveries{}
			r.w.SetMsgObserver(seen)
			var req *mpi.Request
			var finished sim.Time
			var evErr error
			r.run(t, func(p *sim.Proc, rank int) {
				ep := r.w.Endpoint(rank)
				if rank == tc.src {
					if err := ep.Send(p, make([]byte, 64), 0, 3, mpi.Bytes, r.w.Comm()); err != nil {
						t.Errorf("send: %v", err)
					}
				}
				if rank != 0 {
					return
				}
				p.Sleep(tc.delay)
				var err error
				req, err = ep.Irecv(p, make([]byte, tc.recvLen), tc.src, 3, mpi.Bytes, r.w.Comm())
				if err != nil {
					t.Fatalf("irecv: %v", err)
				}
				ev := r.rts[0].CreateEventFromMPIRequest(req)
				evErr = ev.Wait(p)
				finished = ev.FinishedAt
			})
			switch pl := req.Done().Payload().(type) {
			case nil, error:
			default:
				t.Fatalf("request trigger fired with payload %T, want its error", pl)
			}
			if (tc.wantErr == nil) != (evErr == nil) || (tc.wantErr != nil && !errors.Is(evErr, tc.wantErr)) {
				t.Fatalf("event error %v, want %v", evErr, tc.wantErr)
			}
			at, ok := seen[req.Seq()]
			if !ok {
				t.Fatalf("no MsgDelivered event for receive seq %d", req.Seq())
			}
			if finished != at {
				t.Fatalf("event finished at %v, message delivered at %v", finished, at)
			}
		})
	}
}

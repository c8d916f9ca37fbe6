package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestMatchQueueDepthMetrics drives a staged exchange whose queue depths are
// known by construction — rank 1 holds three posted receives while two
// unexpected messages wait — and checks the communicator's high-water marks
// and the Chrome-export instant args the matching engine feeds through the
// observability layer.
func TestMatchQueueDepthMetrics(t *testing.T) {
	e := sim.NewEngine()
	clus := cluster.New(e, cluster.RICC(), 2)
	w := mpi.NewWorld(clus)
	tr := New()
	tr.Instrument(clus, w, nil)
	payload := make([]byte, 64)
	e.Spawn("rank0", func(p *sim.Proc) {
		ep := w.Endpoint(0)
		// Two unexpected messages: rank 1 posts their receives only later.
		for _, tag := range []int{20, 21} {
			if err := ep.Send(p, payload, 1, tag, mpi.Bytes, w.Comm()); err != nil {
				t.Error(err)
			}
		}
		p.Sleep(10 * time.Millisecond)
		for _, tag := range []int{10, 11, 12} {
			if err := ep.Send(p, payload, 1, tag, mpi.Bytes, w.Comm()); err != nil {
				t.Error(err)
			}
		}
	})
	e.Spawn("rank1", func(p *sim.Proc) {
		ep := w.Endpoint(1)
		p.Sleep(5 * time.Millisecond)
		var reqs []*mpi.Request
		// Three receives posted ahead of their messages.
		for _, tag := range []int{10, 11, 12} {
			req, err := ep.Irecv(p, make([]byte, 64), 0, tag, mpi.Bytes, w.Comm())
			if err != nil {
				t.Error(err)
			}
			reqs = append(reqs, req)
		}
		for _, tag := range []int{20, 21} {
			if _, err := ep.Recv(p, make([]byte, 64), 0, tag, mpi.Bytes, w.Comm()); err != nil {
				t.Error(err)
			}
		}
		if err := mpi.Waitall(p, reqs...); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	if posted, unexpected := w.Comm().MatchQueueHighWater(1); posted != 3 || unexpected != 2 {
		t.Errorf("rank 1 high-water = (%d, %d), want (3, 2)", posted, unexpected)
	}

	var chrome bytes.Buffer
	if err := tr.Bus().WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"posted_q"`, `"unexpected_q"`, "matched", "irecv posted"} {
		if !strings.Contains(chrome.String(), want) {
			t.Errorf("Chrome export missing %s", want)
		}
	}
}

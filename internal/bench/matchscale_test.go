package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sweep"
)

func TestMatchScaleDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []MatchPoint {
		old := sweep.Workers()
		sweep.SetWorkers(workers)
		defer sweep.SetWorkers(old)
		pts, err := MatchScale(cluster.RICC(), []int{16, 64}, 8, 25, 2)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	serial, parallel := run(1), run(0)
	if len(serial) != 2 || len(parallel) != 2 {
		t.Fatalf("want 2 points, got %d/%d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		// HostMS is wall clock; everything else must be bit-identical.
		s.HostMS, p.HostMS = 0, 0
		if s != p {
			t.Errorf("point %d differs serial=%+v parallel=%+v", i, s, p)
		}
	}
	for _, pt := range serial {
		if pt.Messages != pt.Ranks*pt.Outstanding*pt.Rounds {
			t.Errorf("ranks=%d: messages=%d, want %d", pt.Ranks, pt.Messages, pt.Ranks*pt.Outstanding*pt.Rounds)
		}
		if pt.SimMS <= 0 {
			t.Errorf("ranks=%d: non-positive sim time %v", pt.Ranks, pt.SimMS)
		}
		if pt.MaxPostedHW < 1 || pt.MaxUnexpectedHW < 0 {
			t.Errorf("ranks=%d: implausible high-water marks %+v", pt.Ranks, pt)
		}
	}
	if serial[0].SimMS >= serial[1].SimMS {
		t.Errorf("denser world should take longer virtually: 16 ranks %.3fms vs 64 ranks %.3fms",
			serial[0].SimMS, serial[1].SimMS)
	}
}

func TestMatchScaleClampsOutstanding(t *testing.T) {
	pts, err := MatchScale(cluster.RICC(), []int{4}, 64, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Outstanding != 3 {
		t.Fatalf("outstanding not clamped to ranks-1: %+v", pts[0])
	}
	headers, rows := MatchScaleTable(pts)
	if len(headers) == 0 || len(rows) != 1 {
		t.Fatalf("table shape: %d headers, %d rows", len(headers), len(rows))
	}
}

// TestMatchScalePartsAboveRanks: a partition count wider than a point's rank
// count is a caller error (clmpi-bw -parallel-world above -ranks), reported
// as an error rather than a panic on a sweep goroutine.
func TestMatchScalePartsAboveRanks(t *testing.T) {
	_, err := MatchScalePartitioned(cluster.RICC(), []int{8, 2}, 4, 25, 1, 3, 1)
	if err == nil || !strings.Contains(err.Error(), "2 ranks cannot span 3 partitions") {
		t.Fatalf("err = %v, want a ranks-cannot-span error", err)
	}
}

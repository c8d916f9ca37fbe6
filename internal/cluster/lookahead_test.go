package cluster

import (
	"math"
	"testing"
	"time"
)

// TestLookaheadMatrixGolden pins the derived matrix for every built-in
// preset at a 4-way split of the full system: every entry must be exactly
// the preset's wire latency. A change here means either a preset's NIC
// model moved or the derivation regressed.
func TestLookaheadMatrixGolden(t *testing.T) {
	for name, want := range map[string]time.Duration{
		"cichlid":    30 * time.Microsecond,
		"ricc":       18 * time.Microsecond,
		"ricc-verbs": 5 * time.Microsecond,
		"hopper":     2 * time.Microsecond,
	} {
		t.Run(name, func(t *testing.T) {
			sys, err := Resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			la := LookaheadMatrix(sys, sys.MaxNodes, 4)
			if len(la) != 4 {
				t.Fatalf("%d rows, want 4", len(la))
			}
			for from, row := range la {
				if len(row) != 4 {
					t.Fatalf("row %d has %d entries, want 4", from, len(row))
				}
				for to, d := range row {
					if d != want {
						t.Errorf("L[%d][%d] = %v, want %v", from, to, d, want)
					}
				}
			}
		})
	}
}

// minCrossDelay is the ground truth the derivation must stay below: the
// smallest virtual-time distance any single hop between a node of shard
// `from` and a node of shard `to` can cover — DMA descriptor latency when
// the two ranks share a node, wire latency otherwise.
func minCrossDelay(sys System, from, to [2]int) time.Duration {
	best := time.Duration(math.MaxInt64)
	for a := from[0]; a < from[1]; a++ {
		for b := to[0]; b < to[1]; b++ {
			d := sys.NIC.WireLatency
			if a == b {
				d = sys.GPU.DMALatency
			}
			if d < best {
				best = d
			}
		}
	}
	return best
}

// TestLookaheadConservatism is the safety property behind the whole
// asynchronous protocol: every off-diagonal matrix entry must be positive
// and at most the true minimum cross-shard propagation delay over the
// balanced split's node ranges. An entry above the true minimum would let a
// shard run past an event that can still reach it.
func TestLookaheadConservatism(t *testing.T) {
	for name, mk := range map[string]func() System{
		"cichlid": Cichlid, "ricc": RICC,
	} {
		sys := mk()
		for n := 1; n <= 12; n++ {
			for parts := 1; parts <= n; parts++ {
				la := LookaheadMatrix(sys, n, parts)
				ranges := make([][2]int, parts)
				for i := range ranges {
					ranges[i][0], ranges[i][1] = PartRange(n, parts, i)
				}
				checkConservative(t, name, sys, ranges, la)
			}
		}
	}
}

func checkConservative(t *testing.T, label string, sys System, ranges [][2]int, la [][]time.Duration) {
	t.Helper()
	for from := range ranges {
		for to := range ranges {
			if from == to {
				continue
			}
			got, truth := la[from][to], minCrossDelay(sys, ranges[from], ranges[to])
			if got > truth {
				t.Fatalf("%s: L[%d][%d] = %v exceeds the true minimum delay %v for %v/%v — not conservative",
					label, from, to, got, truth, ranges[from], ranges[to])
			}
			if got <= 0 {
				t.Fatalf("%s: L[%d][%d] = %v must be positive", label, from, to, got)
			}
		}
	}
}

// TestPartRange pins the balanced-split contract owner() inverts: ranges
// tile [0, n) in order and never differ in size by more than one.
func TestPartRange(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for parts := 1; parts <= n; parts++ {
			prev, minSz, maxSz := 0, n, 0
			for i := 0; i < parts; i++ {
				lo, hi := PartRange(n, parts, i)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d parts=%d: range %d = [%d,%d) does not tile (prev end %d)", n, parts, i, lo, hi, prev)
				}
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d parts=%d: ranges end at %d", n, parts, prev)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("n=%d parts=%d: imbalance %d vs %d", n, parts, minSz, maxSz)
			}
		}
	}
}

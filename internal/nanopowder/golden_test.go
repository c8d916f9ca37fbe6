package nanopowder

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestReferenceGolden pins the model's numerics bit for bit: the first 8
// bytes of sha256 over every value's IEEE bits, little-endian, in cell
// order. The other tests compare the distributed runs against Reference;
// this digest pins Reference itself.
func TestReferenceGolden(t *testing.T) {
	const want = "8ed3258b2fee2fdd"
	h := sha256.New()
	var b [8]byte
	for _, cell := range Reference(Params{Cells: 40, Bins: 96, Steps: 2, SubSteps: 120}) {
		for _, v := range cell {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != want {
		t.Fatalf("reference digest %s, want %s", got, want)
	}
}

// schedule runs cfg with tracing and reports its virtual time: Elapsed, the
// engine's end time and the cluster links' sorted occupancy log.
func schedule(t *testing.T, cfg Config) (*Result, string) {
	t.Helper()
	eng := sim.NewEngine()
	trc := trace.New()
	res, err := run(eng, cfg, trc)
	if err != nil {
		t.Fatalf("%v %d nodes: %v", cfg.Impl, cfg.Nodes, err)
	}
	var occ []string
	for _, ev := range trc.Bus().Events() {
		if ev.Layer != trace.LayerCluster {
			continue
		}
		bytes := "0"
		for _, a := range ev.Args {
			if a.Key == "bytes" {
				bytes = a.Val
			}
		}
		occ = append(occ, fmt.Sprintf("%s\t%s\t%d\t%d\t%s\n", ev.Lane, ev.Name, int64(ev.Start), int64(ev.End), bytes))
	}
	slices.Sort(occ)
	return res, fmt.Sprintf("elapsed=%d end=%d links=%d\n%s", res.Elapsed, int64(eng.Now()), len(occ), strings.Join(occ, ""))
}

// TestPureCostMatchesData is the gate that data cannot influence time: for
// both implementations at every node count that divides the cells, a
// pure-cost run (no Verify) has the same schedule as the run that computes
// the model.
func TestPureCostMatchesData(t *testing.T) {
	p := Params{Cells: 40, Bins: 48, Steps: 2, SubSteps: 20}
	for _, impl := range []Impl{Baseline, CLMPI} {
		for _, nodes := range []int{1, 2, 4, 5, 8} {
			cfg := Config{System: cluster.RICC(), Nodes: nodes, Impl: impl, Params: p}
			pure, want := schedule(t, cfg)
			if pure.MassPerStep != nil || pure.Final != nil {
				t.Errorf("%v %d nodes: pure-cost run reported data", impl, nodes)
			}
			cfg.Verify = true
			if _, got := schedule(t, cfg); got != want {
				t.Errorf("%v %d nodes: data run schedule\n%s\npure-cost run schedule\n%s", impl, nodes, got, want)
			}
		}
	}
}

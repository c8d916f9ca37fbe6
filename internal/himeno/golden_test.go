package himeno

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// gridDigest is the first 8 bytes of sha256 over each value's IEEE bits,
// little-endian, in grid order.
func gridDigest(g []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range g {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestReferenceGolden pins the solver's numerics bit for bit. The other
// tests compare every implementation against Reference; these digests
// pin Reference itself, so a rewrite of the kernels cannot drift.
func TestReferenceGolden(t *testing.T) {
	for _, tc := range []struct {
		mode             InitMode
		digest, gosaBits string
	}{
		{OfficialInit, "b3707c978c0e1f8e", "3f2a655f4711190a"},
		{ScrambledInit, "4c73ae2e46272e2f", "40495d6daa14e806"},
	} {
		grid, gosa := Reference(SizeS, 3, tc.mode)
		if got := gridDigest(grid); got != tc.digest {
			t.Errorf("mode %d: grid digest %s, want %s", tc.mode, got, tc.digest)
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(gosa)); got != tc.gosaBits {
			t.Errorf("mode %d: gosa bits %s, want %s", tc.mode, got, tc.gosaBits)
		}
	}
}

// TestScheduleGolden pins the virtual time of every implementation on both
// presets at 1, 2 and 4 nodes: the loop's Elapsed, the engine's end time,
// the residual's bits, and a digest of the cluster links' occupancy log.
// Command labels are deliberately left out, so renaming a command does not
// move the gate; any change to when or how long a link is busy does.
// Regenerate with `go test ./internal/himeno -run TestScheduleGolden -update`
// and review the diff line by line.
func TestScheduleGolden(t *testing.T) {
	const path = "testdata/schedules.txt"
	var b strings.Builder
	for _, im := range []Impl{Serial, HandOpt, CLMPI, GPUAware, CLMPIOutOfOrder} {
		for _, sys := range []cluster.System{cluster.Cichlid(), cluster.RICC()} {
			for _, nodes := range []int{1, 2, 4} {
				b.WriteString(scheduleLine(t, im, sys, nodes))
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("schedule golden mismatch (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// scheduleLine runs one XS, two-iteration configuration with data and
// formats its golden line.
func scheduleLine(t *testing.T, im Impl, sys cluster.System, nodes int) string {
	t.Helper()
	res, timing := scheduleRun(t, Config{System: sys, Nodes: nodes, Size: SizeXS, Iters: 2, Impl: im, Verify: true})
	return fmt.Sprintf("%s %s %d %s gosa=%016x %s\n", im, sys.Name, nodes,
		timing.clock, math.Float64bits(res.Gosa), timing.links)
}

// schedule is the virtual time of one run: its loop Elapsed and the
// engine's end time, then the count and a digest of the cluster links'
// sorted occupancy log.
type schedule struct{ clock, links string }

// scheduleRun runs cfg with tracing and reports its schedule.
func scheduleRun(t *testing.T, cfg Config) (*Result, schedule) {
	t.Helper()
	eng := sim.NewEngine()
	cfg.Trace = trace.New()
	res, err := run(eng, cfg)
	if err != nil {
		t.Fatalf("%v %s %d nodes: %v", cfg.Impl, cfg.System.Name, cfg.Nodes, err)
	}
	var occ []string
	for _, ev := range cfg.Trace.Bus().Events() {
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
	// Sorted, so the digest pins the set of occupancy intervals rather
	// than the order in which simultaneous charges were recorded.
	sort.Strings(occ)
	h := sha256.New()
	for _, l := range occ {
		h.Write([]byte(l))
	}
	return res, schedule{
		clock: fmt.Sprintf("elapsed=%d end=%d", res.Elapsed.Nanoseconds(), int64(eng.Now())),
		links: fmt.Sprintf("links=%d %s", len(occ), hex.EncodeToString(h.Sum(nil)[:8])),
	}
}

// TestPureCostMatchesData is the gate that data cannot influence time: a
// pure-cost run (no Verify) has the same schedule as runs that compute the
// stencil, from either initial field, for every implementation, preset and
// node count of TestScheduleGolden.
func TestPureCostMatchesData(t *testing.T) {
	for _, im := range []Impl{Serial, HandOpt, CLMPI, GPUAware, CLMPIOutOfOrder} {
		for _, sys := range []cluster.System{cluster.Cichlid(), cluster.RICC()} {
			for _, nodes := range []int{1, 2, 4} {
				cfg := Config{System: sys, Nodes: nodes, Size: SizeXS, Iters: 2, Impl: im}
				pure, want := scheduleRun(t, cfg)
				if pure.Grid != nil || pure.Gosa != 0 {
					t.Errorf("%v %s %d: pure-cost run reported data", im, sys.Name, nodes)
				}
				for _, mode := range []InitMode{OfficialInit, ScrambledInit} {
					cfg.Verify, cfg.Mode = true, mode
					if _, got := scheduleRun(t, cfg); got != want {
						t.Errorf("%v %s %d nodes, init %d: data run %+v, pure-cost run %+v", im, sys.Name, nodes, mode, got, want)
					}
				}
			}
		}
	}
}

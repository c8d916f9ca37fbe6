package bench

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/nanopowder"
)

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "long-header"}, [][]string{{"xx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a   long-header") {
		t.Fatalf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[1], "--") {
		t.Fatalf("no separator: %q", lines[1])
	}
}

func TestMeasureP2PSane(t *testing.T) {
	sys := cluster.RICC()
	bw, err := MeasureP2P(sys, clmpi.Pipelined, 1<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if bw <= 0 || bw > sys.NIC.BW {
		t.Fatalf("bandwidth %.0f MB/s outside (0, wire rate %.0f]", bw/1e6, sys.NIC.BW/1e6)
	}
}

// TestFig8CellMovesNoBytes pins the lazy data plane's gain: a 64 MiB Fig. 8
// cell moves a buffer that nobody writes, so no layer may clear or copy it.
// Each cell must allocate under 1 MiB of heap (two 64 MiB device buffers
// used to be taken and cleared per cell) and report the bandwidth it
// reported before the data plane became lazy, bit for bit.
func TestFig8CellMovesNoBytes(t *testing.T) {
	want := map[string]map[string]float64{
		"Cichlid": {
			"pinned":       1.141371644031211e+08,
			"mapped":       1.1244669396524067e+08,
			"pipelined(1)": 1.1624814808983608e+08,
			"pipelined(4)": 1.1665448695100045e+08,
		},
		"RICC": {
			"pinned":       1.0382783392086297e+09,
			"mapped":       4.947743869860175e+08,
			"pipelined(1)": 1.2443745890142765e+09,
			"pipelined(4)": 1.2673817809850159e+09,
		},
	}
	for _, sys := range []cluster.System{cluster.Cichlid(), cluster.RICC()} {
		for _, im := range Fig8Impls() {
			// Two collections empty the byte pool, so a recycled block
			// cannot hide an allocation.
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			bw, err := MeasureP2P(sys, im.St, im.Block, 64<<20)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s %s: %v", sys.Name, im.Name, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("%s %s: cell allocated %d bytes, want < 1 MiB", sys.Name, im.Name, got)
			}
			if w := want[sys.Name][im.Name]; bw != w {
				t.Errorf("%s %s: bandwidth %v B/s, want %v", sys.Name, im.Name, bw, w)
			}
		}
	}
}

func TestFig8Structure(t *testing.T) {
	// Just the smallest size on Cichlid to keep the test fast: the sweep
	// functions are exercised fully by the cmd tools and benchmarks.
	headers, rows, err := Fig8(cluster.Cichlid())
	if err != nil {
		t.Fatal(err)
	}
	if len(headers) != 1+len(Fig8Impls()) {
		t.Fatalf("headers = %v", headers)
	}
	if len(rows) != len(Fig8Sizes()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Fig8Sizes()))
	}
	for _, r := range rows {
		if len(r) != len(headers) {
			t.Fatalf("ragged row %v", r)
		}
	}
}

// TestFig9NodesFitSize: the node sweep keeps only the counts the size can
// split into two interior planes per rank.
func TestFig9NodesFitSize(t *testing.T) {
	for _, tc := range []struct {
		sys  cluster.System
		size himeno.Size
		want []int
	}{
		{cluster.Cichlid(), himeno.SizeXS, []int{1, 2, 4}},
		{cluster.RICC(), himeno.SizeXS, []int{1, 2, 4, 8, 16}},
		{cluster.RICC(), himeno.SizeS, []int{1, 2, 4, 8, 16, 32}},
		{cluster.RICC(), himeno.SizeM, []int{1, 2, 4, 8, 16, 32, 64}},
	} {
		if got := Fig9Nodes(tc.sys, tc.size); !slices.Equal(got, tc.want) {
			t.Errorf("Fig9Nodes(%s, %s) = %v, want %v", tc.sys.Name, tc.size.Name, got, tc.want)
		}
	}
}

func TestFig9SmallRun(t *testing.T) {
	pts, err := Fig9(cluster.Cichlid(), himeno.SizeXS, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*len(Fig9Nodes(cluster.Cichlid(), himeno.SizeXS)) {
		t.Fatalf("points = %d", len(pts))
	}
	headers, rows := Fig9Table(pts)
	if len(rows) != len(Fig9Nodes(cluster.Cichlid(), himeno.SizeXS)) || len(headers) != 6 {
		t.Fatalf("table %dx%d", len(rows), len(headers))
	}
	// Serial rows carry a ratio, single-node reports ∞.
	if rows[0][5] != "∞" {
		t.Fatalf("1-node ratio = %q, want ∞", rows[0][5])
	}
}

func TestFig10SmallRun(t *testing.T) {
	params := nanopowder.Params{Cells: 8, Bins: 48, Steps: 2, SubSteps: 50}
	// Restrict to the divisors of 8 among the sweep by running directly.
	pts := []Fig10Point{}
	for _, nodes := range []int{1, 2, 4, 8} {
		for _, impl := range []nanopowder.Impl{nanopowder.Baseline, nanopowder.CLMPI} {
			res, err := nanopowder.Run(nanopowder.Config{
				System: cluster.RICC(), Nodes: nodes, Impl: impl, Params: params,
			})
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, Fig10Point{Nodes: nodes, Impl: impl, StepTime: res.StepTime})
		}
	}
	headers, rows := Fig10Table(pts)
	if len(rows) != 4 || len(headers) != 5 {
		t.Fatalf("table %dx%d", len(rows), len(headers))
	}
}

func TestFig4ProducesTimeline(t *testing.T) {
	out, err := Fig4(himeno.CLMPI, himeno.SizeXS, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"clmpi.qc0", "clmpi.qr1", "K", "legend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestTable1MentionsBothSystems(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Cichlid", "RICC", "Tesla C2070", "Tesla C1060", "InfiniBand"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 missing %q", want)
		}
	}
}

// TestRunPathsRejectBeforeBuilding: every run path asks its own check
// first, so a configuration beyond the system is an error from the run,
// never a panic from cluster construction.
func TestRunPathsRejectBeforeBuilding(t *testing.T) {
	oneNode := cluster.Cichlid()
	oneNode.MaxNodes = 1
	backplane := cluster.RICC()
	backplane.NIC.Backplane = 1e9
	runs := map[string]func() error{
		"himeno.Run": func() error {
			_, err := himeno.Run(himeno.Config{System: cluster.Cichlid(), Nodes: 8, Size: himeno.SizeS, Iters: 1, Impl: himeno.CLMPI})
			return err
		},
		"nanopowder.Run": func() error {
			_, err := nanopowder.Run(nanopowder.Config{System: oneNode, Nodes: 2, Params: nanopowder.Params{Cells: 8, Bins: 8, Steps: 1}})
			return err
		},
		"MeasureP2P": func() error {
			_, err := MeasureP2P(oneNode, clmpi.Pinned, 0, 1<<20)
			return err
		},
		"MatchScalePointObs": func() error {
			_, err := MatchScalePointObs(backplane, 8, 4, 25, 1, 2, nil)
			return err
		},
	}
	for name, run := range runs {
		if err := run(); err == nil {
			t.Errorf("%s accepted a configuration its check rejects", name)
		}
	}
}

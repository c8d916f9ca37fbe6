package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOut = `goos: linux
goarch: amd64
pkg: repro/internal/mpi
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMPIMatching/engine=bucket/ranks=64/out=16/wild=0         	   10000	       354.0 ns/op	     240 B/op	       2 allocs/op
BenchmarkMPIMatching/engine=bucket/ranks=64/out=16/wild=25-8      	   10000	       300.5 ns/op	     240 B/op	       2 allocs/op
BenchmarkTransferPipeline/RICC/pinned/256KiB                      	      20	     44525 ns/op	 730.08 MB/s	   11327 B/op	     245 allocs/op
PASS
ok  	repro/internal/mpi	2.090s
`

func TestParseGoBench(t *testing.T) {
	cells := ParseGoBench(sampleBenchOut)
	if len(cells) != 3 {
		t.Fatalf("parsed %d cells, want 3: %+v", len(cells), cells)
	}
	c, ok := cells["BenchmarkMPIMatching/engine=bucket/ranks=64/out=16/wild=0"]
	if !ok || c.NsPerOp != 354 || c.BytesPerOp != 240 || c.AllocsPerOp != 2 {
		t.Fatalf("bad cell: %+v ok=%v", c, ok)
	}
	if c, ok := cells["BenchmarkMPIMatching/engine=bucket/ranks=64/out=16/wild=25"]; !ok || c.NsPerOp != 300.5 {
		t.Fatalf("GOMAXPROCS suffix not stripped: %+v ok=%v", c, ok)
	}
	if c, ok := cells["BenchmarkTransferPipeline/RICC/pinned/256KiB"]; !ok || c.AllocsPerOp != 245 {
		t.Fatalf("MB/s line misparsed: %+v ok=%v", c, ok)
	}
}

func TestDiffBenchAgainstCheckedInBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_mpi.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadBenchBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline must cover the full engine grid and encode the >=5x
	// acceptance criterion at ranks=256/out=64.
	if len(base.Grid) != 24 {
		t.Fatalf("baseline grid has %d cells, want 24", len(base.Grid))
	}
	for _, wild := range []string{"0", "25"} {
		b := base.Grid["engine=bucket/ranks=256/out=64/wild="+wild]
		l := base.Grid["engine=legacy/ranks=256/out=64/wild="+wild]
		if b.NsPerOp <= 0 || l.NsPerOp/b.NsPerOp < 5 {
			t.Errorf("wild=%s: speedup %.1fx below the 5x acceptance bar", wild, l.NsPerOp/b.NsPerOp)
		}
	}
	// The delta arithmetic below is checked against fixed cell values, so
	// it holds whatever a re-baseline measures.
	base.Grid["engine=bucket/ranks=64/out=16/wild=0"] = BenchCell{NsPerOp: 354, BytesPerOp: 240, AllocsPerOp: 2}
	base.Grid["engine=bucket/ranks=64/out=16/wild=25"] = BenchCell{NsPerOp: 278, BytesPerOp: 240, AllocsPerOp: 2}
	cells := ParseGoBench(sampleBenchOut)
	deltas, unmatched, missing := DiffBench(base, cells, "BenchmarkMPIMatching/")
	if len(deltas) != 2 {
		t.Fatalf("deltas: %+v", deltas)
	}
	if len(unmatched) != 1 || !strings.HasPrefix(unmatched[0], "BenchmarkTransferPipeline") {
		t.Fatalf("unmatched: %v", unmatched)
	}
	if len(missing) != 22 {
		t.Fatalf("missing: %d, want 22", len(missing))
	}
	note, flagged := FormatBenchDiff(deltas, unmatched, missing, 5)
	if flagged != 1 { // 300.5 vs 278 baseline is a +8.1% slowdown
		t.Fatalf("flagged=%d, want 1\n%s", flagged, note)
	}
	if !strings.Contains(note, "REGRESSION") || !strings.Contains(note, "+8.1%") {
		t.Fatalf("note missing markers:\n%s", note)
	}
	if _, relaxed := FormatBenchDiff(deltas, nil, nil, 50); relaxed != 0 {
		t.Fatalf("relaxed threshold still flags %d", relaxed)
	}
}

func TestRegressionsBeyond(t *testing.T) {
	deltas := []BenchDelta{
		{Name: "fast", Base: 100, Current: 150},  // 1.5x: under the gate
		{Name: "slow", Base: 100, Current: 250},  // 2.5x: over
		{Name: "worse", Base: 100, Current: 900}, // 9x: over
		{Name: "new", Base: 0, Current: 1e6},     // no baseline: never gated
		{Name: "better", Base: 100, Current: 40}, // improvement
	}
	got := RegressionsBeyond(deltas, 2)
	if len(got) != 2 || got[0].Name != "slow" || got[1].Name != "worse" {
		t.Fatalf("RegressionsBeyond(2) = %+v", got)
	}
	if out := RegressionsBeyond(deltas, 0); out != nil {
		t.Fatalf("factor 0 must disable the gate, got %+v", out)
	}
	if out := RegressionsBeyond(deltas, 10); out != nil {
		t.Fatalf("factor 10 should pass everything, got %+v", out)
	}
}

func TestAllocRegressionsBeyond(t *testing.T) {
	deltas := []BenchDelta{
		{Name: "steady", BaseAllocs: 1000, CurrentAllocs: 1050}, // 1.05x: under a 1.1 gate
		{Name: "leaky", BaseAllocs: 1000, CurrentAllocs: 1200},  // 1.2x: over
		{Name: "new", BaseAllocs: 0, CurrentAllocs: 5000},       // no baseline: never gated
		{Name: "tighter", BaseAllocs: 1000, CurrentAllocs: 400}, // improvement
	}
	got := AllocRegressionsBeyond(deltas, 1.1)
	if len(got) != 1 || got[0].Name != "leaky" {
		t.Fatalf("AllocRegressionsBeyond(1.1) = %+v", got)
	}
	if out := AllocRegressionsBeyond(deltas, 0); out != nil {
		t.Fatalf("factor 0 must disable the gate, got %+v", out)
	}
}

func TestPairDeltasAndViolations(t *testing.T) {
	cells := map[string]BenchCell{
		"engine=part/parts=8/workers=1":        {NsPerOp: 1000, AllocsPerOp: 500},
		"obs=on/engine=part/parts=8/workers=1": {NsPerOp: 1020, AllocsPerOp: 510},
		"engine=part/parts=8/workers=4":        {NsPerOp: 2000, AllocsPerOp: 700},
		"obs=on/engine=part/parts=8/workers=4": {NsPerOp: 2100, AllocsPerOp: 700},
		"obs=on/orphan":                        {NsPerOp: 5},
		"engine=serial":                        {NsPerOp: 9999},
	}
	pairs, missing := PairDeltas(cells, "obs=on/")
	if len(pairs) != 2 {
		t.Fatalf("PairDeltas found %d pairs, want 2: %+v", len(pairs), pairs)
	}
	// Sorted by prefixed name; each pair carries both cells.
	if pairs[0].Against != "engine=part/parts=8/workers=1" || pairs[0].A.NsPerOp != 1020 || pairs[0].B.NsPerOp != 1000 {
		t.Fatalf("pair 0 = %+v", pairs[0])
	}
	if len(missing) != 1 || missing[0] != "obs=on/orphan" {
		t.Fatalf("missing = %v, want the orphan only", missing)
	}

	// workers=1 pair: 1.02x ns, +10 allocs. workers=4 pair: 1.05x ns, +0.
	if v := PairViolations(pairs, 1.03, 16); len(v) != 1 ||
		!strings.Contains(v[0], "workers=4") || !strings.Contains(v[0], "1.050x") {
		t.Fatalf("1.03x/+16 gate = %v, want the workers=4 ns violation only", v)
	}
	if v := PairViolations(pairs, 1.10, 0); len(v) != 1 ||
		!strings.Contains(v[0], "workers=1") || !strings.Contains(v[0], "10 more allocs/op") {
		t.Fatalf("1.10x/+0 gate = %v, want the workers=1 alloc violation only", v)
	}
	if v := PairViolations(pairs, 0, -1); v != nil {
		t.Fatalf("disabled gates must pass everything, got %v", v)
	}
}

func TestBytesRegressionsBeyond(t *testing.T) {
	deltas := []BenchDelta{
		{Name: "steady", BaseBytes: 4096, CurrentBytes: 4200}, // 1.03x: under a 1.1 gate
		{Name: "bloated", BaseBytes: 4096, CurrentBytes: 8192},
		// The case the alloc gate waves through: allocation count flat,
		// every allocation twice as big.
		{Name: "fatter", BaseAllocs: 100, CurrentAllocs: 100, BaseBytes: 1000, CurrentBytes: 2000},
		{Name: "new", BaseBytes: 0, CurrentBytes: 1 << 20},   // no baseline: never gated
		{Name: "slimmer", BaseBytes: 4096, CurrentBytes: 64}, // improvement
	}
	got := BytesRegressionsBeyond(deltas, 1.1)
	if len(got) != 2 || got[0].Name != "bloated" || got[1].Name != "fatter" {
		t.Fatalf("BytesRegressionsBeyond(1.1) = %+v", got)
	}
	if out := AllocRegressionsBeyond(deltas, 1.1); out != nil {
		t.Fatalf("alloc gate should miss the fatter-allocations case, got %+v", out)
	}
	if out := BytesRegressionsBeyond(deltas, 0); out != nil {
		t.Fatalf("factor 0 must disable the gate, got %+v", out)
	}
}

// TestFormatBenchDiffBytesColumns checks the B/op columns appear exactly
// when some delta carries byte data, and that byte drift alone never
// contributes to the flagged count (gating on bytes is
// BytesRegressionsBeyond's job).
func TestFormatBenchDiffBytesColumns(t *testing.T) {
	withB := []BenchDelta{{Name: "cell", Base: 100, Current: 101, DeltaPct: 1,
		BaseBytes: 1024, CurrentBytes: 2048, BytesDeltaPct: 100}}
	note, flagged := FormatBenchDiff(withB, nil, nil, 5)
	if flagged != 0 {
		t.Fatalf("byte drift flagged as an ns/op regression:\n%s", note)
	}
	if !strings.Contains(note, "base B/op") || !strings.Contains(note, "+100.0%") {
		t.Fatalf("byte columns missing:\n%s", note)
	}
	without := []BenchDelta{{Name: "cell", Base: 100, Current: 101, DeltaPct: 1}}
	if note, _ := FormatBenchDiff(without, nil, nil, 5); strings.Contains(note, "B/op") {
		t.Fatalf("byte columns rendered without data:\n%s", note)
	}
}

// TestFormatBenchDiffAllocColumns checks the allocation columns appear
// exactly when some delta carries allocation data, and that allocation
// drift alone never contributes to the flagged count (gating on allocations
// is AllocRegressionsBeyond's job, with its own tighter threshold).
func TestFormatBenchDiffAllocColumns(t *testing.T) {
	withA := []BenchDelta{{Name: "cell", Base: 100, Current: 101, DeltaPct: 1,
		BaseAllocs: 10, CurrentAllocs: 20, AllocDeltaPct: 100}}
	note, flagged := FormatBenchDiff(withA, nil, nil, 5)
	if flagged != 0 {
		t.Fatalf("alloc drift flagged as an ns/op regression:\n%s", note)
	}
	if !strings.Contains(note, "base allocs") || !strings.Contains(note, "+100.0%") {
		t.Fatalf("allocation columns missing:\n%s", note)
	}
	without := []BenchDelta{{Name: "cell", Base: 100, Current: 101, DeltaPct: 1}}
	if note, _ := FormatBenchDiff(without, nil, nil, 5); strings.Contains(note, "allocs") {
		t.Fatalf("allocation columns rendered without data:\n%s", note)
	}
}

// TestRepoBaselinesAreDiffable pins the contract the CI bench loop relies on:
// every checked-in BENCH_*.json parses, has a populated grid with positive
// ns/op cells, and carries the self-describing diff spec that lets
// `clmpi-benchdiff -run` regenerate its measurement.
func TestRepoBaselinesAreDiffable(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("found only %d BENCH_*.json baselines: %v", len(paths), paths)
	}
	for _, p := range paths {
		name := filepath.Base(p)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		base, err := LoadBenchBaseline(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if base.Diff == nil {
			t.Errorf("%s: no diff spec; the CI baseline loop cannot regenerate it", name)
			continue
		}
		if base.Diff.BenchRegex == "" || base.Diff.Package == "" {
			t.Errorf("%s: diff spec incomplete: %+v", name, base.Diff)
		}
		for cell, v := range base.Grid {
			if v.NsPerOp <= 0 {
				t.Errorf("%s: grid cell %q has ns_per_op %v", name, cell, v.NsPerOp)
			}
			if base.Diff.Trim != "" && strings.HasPrefix(cell, base.Diff.Trim) {
				t.Errorf("%s: grid cell %q still carries the trim prefix %q", name, cell, base.Diff.Trim)
			}
		}
	}
}

func TestHostMismatch(t *testing.T) {
	base := BenchHost{CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", Cores: 2, Go: "go1.24.0"}
	if d := HostMismatch(base, base); len(d) != 0 {
		t.Fatalf("same host differs in %v", d)
	}
	cur := BenchHost{CPU: "AMD EPYC", Cores: 8, Go: "go1.24.0", Note: "ignored"}
	if d := HostMismatch(base, cur); strings.Join(d, ",") != "cpu,cores" {
		t.Fatalf("differs in %v, want cpu,cores", d)
	}
	cur = BenchHost{CPU: base.CPU, Cores: 2, Go: "go1.25.1"}
	if d := HostMismatch(base, cur); strings.Join(d, ",") != "go" {
		t.Fatalf("differs in %v, want go", d)
	}
	// A field the baseline does not record never differs.
	if d := HostMismatch(BenchHost{CPU: base.CPU}, cur); len(d) != 0 {
		t.Fatalf("unrecorded fields differ: %v", d)
	}
	if cpu := BenchCPU(sampleBenchOut); cpu != base.CPU {
		t.Fatalf("BenchCPU = %q", cpu)
	}
	if cpu := BenchCPU("PASS\n"); cpu != "" {
		t.Fatalf("BenchCPU without a header = %q", cpu)
	}
}

func TestRepoBaselinesRecordHost(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		base, err := LoadBenchBaseline(data)
		if err != nil {
			t.Fatal(err)
		}
		if h := base.Host; h == nil || h.CPU == "" || h.Cores == 0 || h.Go == "" || base.CommitBase == "" {
			t.Errorf("%s: host fingerprint incomplete: %+v, commit_base %q", filepath.Base(p), h, base.CommitBase)
		}
	}
}

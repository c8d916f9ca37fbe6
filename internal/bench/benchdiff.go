package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchdiff: a benchstat-style comparison between a `go test -bench` run and
// a checked-in BENCH_*.json baseline. CI runs it after the benchmark smoke
// steps to annotate the build with per-cell deltas; it reports, it does not
// gate (single-shot CI numbers are too noisy to fail a build on), unless the
// caller opts into a threshold.

// BenchCell is one benchmark result (one grid cell).
type BenchCell struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// DiffSpec makes a baseline self-describing: it records how to regenerate
// the measurement the grid snapshots, so CI can loop over every BENCH_*.json
// with one generic step instead of a hand-maintained list of bench commands.
type DiffSpec struct {
	// BenchRegex is the -bench selector.
	BenchRegex string `json:"bench_regex"`
	// Package is the go test package pattern ("." for the repo root).
	Package string `json:"package"`
	// BenchTime is the -benchtime value (e.g. "20x"); empty uses the go
	// test default.
	BenchTime string `json:"benchtime,omitempty"`
	// Trim is removed from the front of measured benchmark names before
	// grid lookup (e.g. "BenchmarkMPIMatching/").
	Trim string `json:"trim,omitempty"`
}

// BenchBaseline mirrors the BENCH_*.json files at the repository root.
type BenchBaseline struct {
	Description string               `json:"description"`
	Host        *BenchHost           `json:"host,omitempty"`
	CommitBase  string               `json:"commit_base"`
	Diff        *DiffSpec            `json:"diff,omitempty"`
	Grid        map[string]BenchCell `json:"grid"`
}

// BenchHost is the host fingerprint a baseline was measured on. Absolute
// ns/op only compares across runs on the same kind of host.
type BenchHost struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Cores  int    `json:"cores,omitempty"`
	Go     string `json:"go,omitempty"`
	Note   string `json:"note,omitempty"`
}

// HostMismatch names the fingerprint fields — cpu, cores, go — in which
// the running host cur differs from the baseline's recorded host. A field
// the baseline does not record never differs.
func HostMismatch(base, cur BenchHost) []string {
	var diff []string
	if base.CPU != "" && base.CPU != cur.CPU {
		diff = append(diff, "cpu")
	}
	if base.Cores != 0 && base.Cores != cur.Cores {
		diff = append(diff, "cores")
	}
	if base.Go != "" && base.Go != cur.Go {
		diff = append(diff, "go")
	}
	return diff
}

// BenchCPU returns the CPU that `go test -bench` output names on its
// "cpu:" header line, or "" if there is none.
func BenchCPU(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			return strings.TrimSpace(cpu)
		}
	}
	return ""
}

// LoadBenchBaseline parses a BENCH_*.json document.
func LoadBenchBaseline(data []byte) (*BenchBaseline, error) {
	var b BenchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchdiff: baseline: %w", err)
	}
	if len(b.Grid) == 0 {
		return nil, fmt.Errorf("benchdiff: baseline has no grid")
	}
	return &b, nil
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) MB/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// ParseGoBench extracts results from `go test -bench` text output, keyed by
// full benchmark name (GOMAXPROCS suffix stripped).
func ParseGoBench(out string) map[string]BenchCell {
	cells := make(map[string]BenchCell)
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var c BenchCell
		c.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[4] != "" {
			c.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			c.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		cells[m[1]] = c
	}
	return cells
}

// BenchDelta is one baseline-vs-current comparison row.
type BenchDelta struct {
	Name     string
	Base     float64 // baseline ns/op
	Current  float64 // measured ns/op
	DeltaPct float64 // (current-base)/base * 100
	// Allocation comparison, filled when both sides report allocs/op (the
	// benchmark must call b.ReportAllocs or be run with -benchmem).
	BaseAllocs    int64
	CurrentAllocs int64
	AllocDeltaPct float64 // (current-base)/base * 100, 0 when BaseAllocs is 0
	// Heap-byte comparison, filled when both sides report B/op. Allocation
	// counts can stay flat while each allocation grows, so bytes get their
	// own columns and their own gate.
	BaseBytes     int64
	CurrentBytes  int64
	BytesDeltaPct float64 // (current-base)/base * 100, 0 when BaseBytes is 0
}

// DiffBench matches measured benchmarks against baseline grid keys. trim is
// removed from the front of measured names before matching (typically
// "BenchmarkMPIMatching/"); measured benchmarks with no baseline cell and
// baseline cells never measured are returned separately.
func DiffBench(base *BenchBaseline, cells map[string]BenchCell, trim string) (deltas []BenchDelta, unmatched, missing []string) {
	seen := make(map[string]bool)
	for name, c := range cells {
		key := strings.TrimPrefix(name, trim)
		b, ok := base.Grid[key]
		if !ok {
			unmatched = append(unmatched, name)
			continue
		}
		seen[key] = true
		d := BenchDelta{Name: key, Base: b.NsPerOp, Current: c.NsPerOp,
			BaseAllocs: b.AllocsPerOp, CurrentAllocs: c.AllocsPerOp,
			BaseBytes: b.BytesPerOp, CurrentBytes: c.BytesPerOp}
		if b.NsPerOp > 0 {
			d.DeltaPct = (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		if b.AllocsPerOp > 0 {
			d.AllocDeltaPct = float64(c.AllocsPerOp-b.AllocsPerOp) / float64(b.AllocsPerOp) * 100
		}
		if b.BytesPerOp > 0 {
			d.BytesDeltaPct = float64(c.BytesPerOp-b.BytesPerOp) / float64(b.BytesPerOp) * 100
		}
		deltas = append(deltas, d)
	}
	for key := range base.Grid {
		if !seen[key] {
			missing = append(missing, key)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	sort.Strings(unmatched)
	sort.Strings(missing)
	return deltas, unmatched, missing
}

// RegressionsBeyond returns the cells whose measured ns/op exceeds factor
// times the baseline (e.g. factor 2 = a >2x slowdown), in name order. This
// is the gate threshold: wide enough that single-shot CI noise passes, tight
// enough that a real algorithmic regression fails the build. Cells with no
// baseline ns/op are never returned.
func RegressionsBeyond(deltas []BenchDelta, factor float64) []BenchDelta {
	if factor <= 0 {
		return nil
	}
	var out []BenchDelta
	for _, d := range deltas {
		if d.Base > 0 && d.Current > factor*d.Base {
			out = append(out, d)
		}
	}
	return out
}

// AllocRegressionsBeyond returns the cells whose measured allocs/op exceeds
// factor times the baseline, in name order. Allocation counts are exact (no
// timer noise), so a much tighter factor than the ns/op gate is appropriate
// — 1.1 catches a 10% allocation regression that a 2x wall-clock gate would
// wave through. Cells with no baseline allocs/op are never returned.
func AllocRegressionsBeyond(deltas []BenchDelta, factor float64) []BenchDelta {
	if factor <= 0 {
		return nil
	}
	var out []BenchDelta
	for _, d := range deltas {
		if d.BaseAllocs > 0 && float64(d.CurrentAllocs) > factor*float64(d.BaseAllocs) {
			out = append(out, d)
		}
	}
	return out
}

// BytesRegressionsBeyond returns the cells whose measured B/op exceeds
// factor times the baseline, in name order. Like allocation counts, heap
// bytes per op are exact, so the same tight factor as the alloc gate is
// appropriate; it catches the "same number of allocations, each one bigger"
// regression the alloc gate misses. Cells with no baseline B/op are never
// returned.
func BytesRegressionsBeyond(deltas []BenchDelta, factor float64) []BenchDelta {
	if factor <= 0 {
		return nil
	}
	var out []BenchDelta
	for _, d := range deltas {
		if d.BaseBytes > 0 && float64(d.CurrentBytes) > factor*float64(d.BaseBytes) {
			out = append(out, d)
		}
	}
	return out
}

// PairDelta is one same-run cell pairing from PairDeltas: a measured cell
// whose name carries the given prefix, against the cell named by the rest.
type PairDelta struct {
	Name    string // the prefixed cell
	Against string // its unprefixed twin
	A, B    BenchCell
}

// PairDeltas pairs every measured cell named prefix+X with the cell named X
// from the same run, in name order. Comparing two cells of one `go test
// -bench` invocation cancels the host's speed out of the comparison, so a
// far tighter bound than any baseline-file gate is meaningful — this is how
// the observability overhead guard asks "recorder on vs off" on whatever
// machine CI happens to land on. Prefixed cells with no unprefixed twin are
// returned in missing.
func PairDeltas(cells map[string]BenchCell, prefix string) (pairs []PairDelta, missing []string) {
	for name, a := range cells {
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		b, ok := cells[rest]
		if !ok {
			missing = append(missing, name)
			continue
		}
		pairs = append(pairs, PairDelta{Name: name, Against: rest, A: a, B: b})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	sort.Strings(missing)
	return pairs, missing
}

// PairViolations gates the pairings: a pair violates when A's ns/op exceeds
// factor times B's (factor <= 0 disables), or when A makes more than
// allocDelta additional allocs/op over B (allocDelta < 0 disables; 0 demands
// alloc parity). Violations come back as printable one-line verdicts.
func PairViolations(pairs []PairDelta, factor float64, allocDelta int64) []string {
	var out []string
	for _, p := range pairs {
		if factor > 0 && p.B.NsPerOp > 0 && p.A.NsPerOp > factor*p.B.NsPerOp {
			out = append(out, fmt.Sprintf("PAIR GATE: %s is %.3fx %s (%.0f vs %.0f ns/op), over the %.2fx limit",
				p.Name, p.A.NsPerOp/p.B.NsPerOp, p.Against, p.A.NsPerOp, p.B.NsPerOp, factor))
		}
		if allocDelta >= 0 && p.A.AllocsPerOp > p.B.AllocsPerOp+allocDelta {
			out = append(out, fmt.Sprintf("PAIR GATE: %s makes %d more allocs/op than %s (%d vs %d), over the +%d limit",
				p.Name, p.A.AllocsPerOp-p.B.AllocsPerOp, p.Against, p.A.AllocsPerOp, p.B.AllocsPerOp, allocDelta))
		}
	}
	return out
}

// FormatBenchDiff renders the comparison as an aligned regression note.
// Cells whose |delta| exceeds flagPct get a trailing marker; flagPct <= 0
// disables the markers. The returned count is the number of flagged
// regressions (ns/op slowdowns only — speedups and allocation drifts are
// never flagged; allocation gating is AllocRegressionsBeyond's job).
// Allocation and byte columns appear only when some cell carries the
// corresponding data, so baselines predating -benchmem keep their old
// rendering.
func FormatBenchDiff(deltas []BenchDelta, unmatched, missing []string, flagPct float64) (string, int) {
	withAllocs, withBytes := false, false
	for _, d := range deltas {
		if d.BaseAllocs > 0 || d.CurrentAllocs > 0 {
			withAllocs = true
		}
		if d.BaseBytes > 0 || d.CurrentBytes > 0 {
			withBytes = true
		}
	}
	rows := make([][]string, 0, len(deltas))
	flagged := 0
	for _, d := range deltas {
		mark := ""
		if flagPct > 0 && d.DeltaPct > flagPct {
			mark = "REGRESSION"
			flagged++
		}
		row := []string{
			d.Name,
			fmt.Sprintf("%.0f", d.Base),
			fmt.Sprintf("%.0f", d.Current),
			fmt.Sprintf("%+.1f%%", d.DeltaPct),
		}
		if withAllocs {
			dAlloc := ""
			if d.BaseAllocs > 0 {
				dAlloc = fmt.Sprintf("%+.1f%%", d.AllocDeltaPct)
			}
			row = append(row,
				fmt.Sprintf("%d", d.BaseAllocs),
				fmt.Sprintf("%d", d.CurrentAllocs),
				dAlloc)
		}
		if withBytes {
			dBytes := ""
			if d.BaseBytes > 0 {
				dBytes = fmt.Sprintf("%+.1f%%", d.BytesDeltaPct)
			}
			row = append(row,
				fmt.Sprintf("%d", d.BaseBytes),
				fmt.Sprintf("%d", d.CurrentBytes),
				dBytes)
		}
		rows = append(rows, append(row, mark))
	}
	headers := []string{"benchmark", "base ns/op", "now ns/op", "delta"}
	if withAllocs {
		headers = append(headers, "base allocs", "now allocs", "delta")
	}
	if withBytes {
		headers = append(headers, "base B/op", "now B/op", "delta")
	}
	headers = append(headers, "")
	var b strings.Builder
	b.WriteString(FormatTable(headers, rows))
	for _, n := range unmatched {
		fmt.Fprintf(&b, "no baseline cell for %s\n", n)
	}
	for _, n := range missing {
		fmt.Fprintf(&b, "baseline cell not measured: %s\n", n)
	}
	return b.String(), flagged
}

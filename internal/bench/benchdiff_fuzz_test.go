package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchText renders one cell as a `go test -bench` result line for name
// (a full benchmark name) with a -2 GOMAXPROCS suffix.
func benchText(name string, c BenchCell) string {
	return fmt.Sprintf("%s-2 \t       1\t%s ns/op\t%d B/op\t%d allocs/op\n",
		name, strconv.FormatFloat(c.NsPerOp, 'f', -1, 64), c.BytesPerOp, c.AllocsPerOp)
}

// FuzzParseGoBench: the two parsers behind clmpi-benchdiff read whatever a
// pipe or a baseline file hands them. Neither may panic; LoadBenchBaseline
// accepts only a non-empty grid; and a cell rendered as a `go test -bench`
// line with a GOMAXPROCS suffix parses back to the same name and values.
// Only the suffixed form is pinned: without a suffix the regexp strips a
// trailing -<digits> from the name itself. Seeded from every checked-in
// BENCH_*.json, whole and rendered as bench output.
func FuzzParseGoBench(f *testing.F) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no BENCH_*.json seeds: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		b, err := LoadBenchBaseline(data)
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		trim := "Benchmark"
		if b.Diff != nil && b.Diff.Trim != "" {
			trim = b.Diff.Trim
		}
		keys := make([]string, 0, len(b.Grid))
		for k := range b.Grid {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var out strings.Builder
		for _, k := range keys {
			out.WriteString(benchText(trim+k, b.Grid[k]))
		}
		c := b.Grid[keys[0]]
		name := strings.TrimPrefix(trim+keys[0], "Benchmark")
		f.Add(data, name, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
		f.Add([]byte(out.String()), name, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
	}
	f.Fuzz(func(t *testing.T, data []byte, name string, ns float64, bytesOp, allocs int64) {
		ParseGoBench(string(data))
		if b, err := LoadBenchBaseline(data); err == nil && len(b.Grid) == 0 {
			t.Fatalf("accepted a baseline with an empty grid: %q", data)
		}

		// The round trip holds for what `go test -bench` can print: a
		// whitespace-free name on one line, non-negative values, and an
		// ns/op without exponent or sign.
		full := "Benchmark" + name
		if name == "" || len(full) > 4096 || strings.ContainsAny(name, " \t\n\f\r") ||
			math.IsNaN(ns) || math.IsInf(ns, 0) || math.Signbit(ns) || bytesOp < 0 || allocs < 0 {
			return
		}
		want := BenchCell{NsPerOp: ns, BytesPerOp: bytesOp, AllocsPerOp: allocs}
		line := benchText(full, want)
		got := ParseGoBench(line)
		if c, ok := got[full]; !ok || len(got) != 1 || c != want {
			t.Fatalf("%q parsed to %+v, want %s: %+v", line, got, full, want)
		}
	})
}

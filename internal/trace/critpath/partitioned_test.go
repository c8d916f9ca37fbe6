package critpath

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

// TestPartitionedIdentityAndGolden runs a genuinely parallel (2-shard,
// 2-worker) partitioned simulation, merges the per-shard buses, and holds
// the analyzer to the same structural invariants as a serial trace: the
// critical path tiles [0, End) and the class attribution sums to the
// horizon. The report is golden-pinned, and the merged partition-tagged
// trace must survive a native-format round trip unchanged — the same path
// `clmpi-critpath -in` takes — so the offline tool accepts parallel traces.
func TestPartitionedIdentityAndGolden(t *testing.T) {
	b, err := bench.TracePartitioned("cichlid", 8, 2)
	if err != nil {
		t.Fatalf("TracePartitioned: %v", err)
	}
	parts := map[string]bool{}
	for _, ev := range b.Events() {
		for _, a := range ev.Args {
			if a.Key == "part" {
				parts[a.Val] = true
			}
		}
	}
	if !parts["0"] || !parts["1"] {
		t.Fatalf("merged bus missing partition tags: saw %v", parts)
	}
	a := Analyze(b)
	checkIdentity(t, b, a)
	checkGolden(t, "partitioned_report.txt", []byte(a.Report()))

	var buf bytes.Buffer
	if err := b.WriteNative(&buf); err != nil {
		t.Fatalf("WriteNative: %v", err)
	}
	rb, err := trace.ReadNative(&buf)
	if err != nil {
		t.Fatalf("ReadNative: %v", err)
	}
	a2 := Analyze(rb)
	checkIdentity(t, rb, a2)
	if a2.Report() != a.Report() {
		t.Fatal("analysis of the round-tripped native trace diverges from the in-memory bus")
	}
}

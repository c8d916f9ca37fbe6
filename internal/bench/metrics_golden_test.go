package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMetricsGolden pins the virtual-time metrics rendering of four traced
// runs byte for byte: both profiling presets, a partitioned run's merged
// bus, and a pipelined 32 MiB transfer. The metrics are derived from the
// recorded events, so any change to what an adapter records or to the
// derivation shows up here. Regenerate with
// `go test ./internal/bench -run TestMetricsGolden -update`.
func TestMetricsGolden(t *testing.T) {
	cases := []struct {
		name string
		bus  func() (*trace.Bus, error)
	}{
		{"cichlid", func() (*trace.Bus, error) {
			trc, err := TracePreset("cichlid")
			if err != nil {
				return nil, err
			}
			return trc.Bus(), nil
		}},
		{"ricc", func() (*trace.Bus, error) {
			trc, err := TracePreset("ricc")
			if err != nil {
				return nil, err
			}
			return trc.Bus(), nil
		}},
		{"partitioned_cichlid_8_2", func() (*trace.Bus, error) {
			return TracePartitioned("cichlid", 8, 2)
		}},
		{"p2p_ricc_pipelined_32m", func() (*trace.Bus, error) {
			trc := trace.New()
			if _, err := MeasureP2PTraced(cluster.RICC(), clmpi.Pipelined, 0, 32<<20, trc); err != nil {
				return nil, err
			}
			return trc.Bus(), nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := c.bus()
			if err != nil {
				t.Fatal(err)
			}
			got := b.Metrics().Format()
			path := filepath.Join("testdata", "metrics_"+c.name+".txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Fatalf("metrics golden mismatch for %s (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", c.name, got, want)
			}
		})
	}
}

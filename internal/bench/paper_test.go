package bench

import (
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/nanopowder"
)

// TestPaperShapes pins the paper's headline shapes at the sizes clmpi-repro
// runs, through the same figure functions, so a model change that breaks
// one fails go test rather than only the repro_report.txt diff:
//   - Fig. 9(a): Cichlid 4-node clMPI/hand-optimized in [1.10, 1.20]
//     (1.150 in repro_report.txt);
//   - Fig. 8(b): RICC pinned beats mapped at every message size;
//   - Fig. 10: the clMPI gain exceeds 1 at every multi-node count.
func TestPaperShapes(t *testing.T) {
	t.Run("fig9a", func(t *testing.T) {
		pts, err := Fig9Sweep(cluster.Cichlid(), himeno.SizeM, 6,
			[]himeno.Impl{himeno.HandOpt, himeno.CLMPI}, []int{4})
		if err != nil {
			t.Fatal(err)
		}
		gf := map[himeno.Impl]float64{}
		for _, p := range pts {
			gf[p.Impl] = p.GFLOPS
		}
		if gain := gf[himeno.CLMPI] / gf[himeno.HandOpt]; gain < 1.10 || gain > 1.20 {
			t.Errorf("Cichlid 4-node clMPI/hand-optimized = %.3f, want [1.10, 1.20]", gain)
		}
	})
	t.Run("fig8b", func(t *testing.T) {
		headers, rows, err := Fig8(cluster.RICC())
		if err != nil {
			t.Fatal(err)
		}
		if headers[1] != "pinned MB/s" || headers[2] != "mapped MB/s" {
			t.Fatalf("Fig. 8 columns = %v, want pinned then mapped", headers)
		}
		for _, r := range rows {
			pinned, err1 := strconv.ParseFloat(r[1], 64)
			mapped, err2 := strconv.ParseFloat(r[2], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("row %v: unparsable bandwidth", r)
			}
			if pinned <= mapped {
				t.Errorf("RICC at %s bytes: pinned %.1f MB/s <= mapped %.1f MB/s", r[0], pinned, mapped)
			}
		}
	})
	t.Run("fig10", func(t *testing.T) {
		pts, err := Fig10(nanopowder.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		step := map[int]map[nanopowder.Impl]float64{}
		for _, p := range pts {
			if step[p.Nodes] == nil {
				step[p.Nodes] = map[nanopowder.Impl]float64{}
			}
			step[p.Nodes][p.Impl] = p.StepTime.Seconds()
		}
		for _, n := range Fig10Nodes()[1:] {
			if gain := step[n][nanopowder.Baseline] / step[n][nanopowder.CLMPI]; !(gain > 1) {
				t.Errorf("clMPI gain at %d nodes = %.4f, want > 1", n, gain)
			}
		}
	})
}

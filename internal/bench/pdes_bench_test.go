package bench

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// BenchmarkPDES measures the dense wildcard exchange (the matching-scaling
// workload of BENCH_mpi.json, at large-world rank counts) end to end on the
// serial engine and on the 4-way partitioned engine, with one and four
// workers. One iteration is one whole simulation, so ns/op is host cost of
// the full run and allocs/op is the complete allocation bill — the number
// the arena/pool work in internal/sim and internal/mpi exists to shrink.
// Baselines are pinned in BENCH_pdes.json; on a single-core host workers=4
// degenerates to time-sliced workers and only the allocation numbers and
// the workers=1 speedup are meaningful.
// The RICC cells keep their historical un-prefixed names; the Hopper cells
// (prefix system=hopper/) cover a modern 400G-fabric regime at the smaller
// rank count — the fabric is ~24x faster, so the exchange's virtual time
// collapses but the host-side event bill is nearly identical.
func BenchmarkPDES(b *testing.B) {
	for _, tc := range []struct {
		prefix string
		sys    cluster.System
		ranks  []int
	}{
		{"", cluster.RICC(), []int{2000, 10000}},
		{"system=hopper/", cluster.Hopper(), []int{2000}},
	} {
		sys := tc.sys
		for _, ranks := range tc.ranks {
			b.Run(fmt.Sprintf("%sengine=serial/ranks=%d", tc.prefix, ranks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := matchWorkload(sys, ranks, 8, 25, 1, 1, 1, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			for _, workers := range []int{1, 4} {
				b.Run(fmt.Sprintf("%sengine=part/parts=4/workers=%d/ranks=%d", tc.prefix, workers, ranks), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := matchWorkload(sys, ranks, 8, 25, 1, 4, workers, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
	// Wider splits on the RICC preset: 8-way at the historical 10k-rank
	// point, and the 100k-rank cell that only exists partitioned — a serial
	// run at that size is pure wait, so the partitioned engine is the only
	// configuration worth pinning there.
	ricc := cluster.RICC()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("engine=part/parts=8/workers=%d/ranks=10000", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := matchWorkload(ricc, 10000, 8, 25, 1, 8, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("engine=part/parts=8/workers=4/ranks=100000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := matchWorkload(ricc, 100000, 8, 25, 1, 8, 4, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The obs=on cells repeat the parts=8 10k-rank point with the flight
	// recorder and metrics registry attached — the configuration the CI
	// overhead guard pairs against the cells above. The registry and recorder
	// live across iterations, the daemon shape (one /metricz registry, many
	// engines); each iteration still pays the per-engine attach (handle
	// resolution, shard labels) plus the per-step atomics and ring writes.
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("obs=on/engine=part/parts=8/workers=%d/ranks=10000", workers), func(b *testing.B) {
			sm := obs.NewSim(obs.NewRegistry(), obs.NewRecorder(8, 0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := matchWorkload(ricc, 10000, 8, 25, 1, 8, workers, attachObs(sm)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

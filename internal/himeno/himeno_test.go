package himeno

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
)

func TestReferenceConverges(t *testing.T) {
	_, g1 := Reference(SizeXS, 1, OfficialInit)
	_, g8 := Reference(SizeXS, 8, OfficialInit)
	if g1 <= 0 {
		t.Fatalf("first-iteration gosa = %v, want positive", g1)
	}
	if g8 >= g1 {
		t.Fatalf("gosa did not decrease: iter1 %v, iter8 %v", g1, g8)
	}
}

func TestSizeLookups(t *testing.T) {
	for _, s := range []Size{SizeXS, SizeS, SizeM, SizeL} {
		got, err := SizeByName(s.Name)
		if err != nil || got != s {
			t.Errorf("SizeByName(%q) = %v, %v", s.Name, got, err)
		}
	}
	if _, err := SizeByName("XXL"); err == nil {
		t.Error("unknown size accepted")
	}
	if SizeM.InteriorCells() != 255*127*127 {
		t.Errorf("M interior = %d", SizeM.InteriorCells())
	}
}

func TestImplParse(t *testing.T) {
	for _, im := range []Impl{Serial, HandOpt, CLMPI} {
		got, err := ParseImpl(im.String())
		if err != nil || got != im {
			t.Errorf("ParseImpl(%q) = %v, %v", im.String(), got, err)
		}
	}
	if _, err := ParseImpl("quantum"); err == nil {
		t.Error("unknown impl accepted")
	}
}

// TestDecomposePartition: every interior plane is owned exactly once and
// ranges are contiguous and ordered.
func TestDecomposePartition(t *testing.T) {
	f := func(iRaw, nRaw uint8) bool {
		i := int(iRaw%200) + 20
		s := Size{"t", i, 5, 5}
		n := int(nRaw%8) + 1
		prev := 1
		for r := 0; r < n; r++ {
			lo, hi := decompose(s, n, r)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == s.I-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAllImplsMatchReference is the central correctness claim: all three
// distributed implementations, at several node counts, reproduce the host
// reference solver bit-for-bit (grids) and match its residual. The scrambled
// initializer makes every halo plane carry distinguishable data.
func TestAllImplsMatchReference(t *testing.T) {
	const iters = 4
	wantGrid, wantGosa := Reference(SizeXS, iters, ScrambledInit)
	for _, impl := range []Impl{Serial, HandOpt, CLMPI} {
		for _, nodes := range []int{1, 2, 3, 4} {
			impl, nodes := impl, nodes
			t.Run(fmt.Sprintf("%v/nodes=%d", impl, nodes), func(t *testing.T) {
				res, err := Run(Config{
					System: cluster.Cichlid(),
					Nodes:  nodes,
					Size:   SizeXS,
					Iters:  iters,
					Impl:   impl,
					Mode:   ScrambledInit,
					Verify: true,
				})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if d := relDiff(res.Gosa, wantGosa); d > 1e-12 {
					t.Errorf("gosa %v vs reference %v (rel %g)", res.Gosa, wantGosa, d)
				}
				for i, v := range res.Grid {
					if v != wantGrid[i] {
						t.Fatalf("grid[%d] = %v, reference %v (first mismatch)", i, v, wantGrid[i])
					}
				}
			})
		}
	}
}

func TestRunOnRICCManyNodes(t *testing.T) {
	const iters = 3
	wantGrid, _ := Reference(SizeS, iters, ScrambledInit)
	res, err := Run(Config{
		System: cluster.RICC(),
		Nodes:  16,
		Size:   SizeS,
		Iters:  iters,
		Impl:   CLMPI,
		Mode:   ScrambledInit,
		Verify: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, v := range res.Grid {
		if v != wantGrid[i] {
			t.Fatalf("grid[%d] = %v, reference %v", i, v, wantGrid[i])
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{System: cluster.Cichlid(), Nodes: 1, Size: SizeXS, Iters: 0, Impl: Serial}); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := Run(Config{System: cluster.Cichlid(), Nodes: 0, Size: SizeXS, Iters: 1, Impl: Serial}); err == nil {
		t.Error("zero nodes accepted")
	}
	// 63 interior planes of XS cannot give 2 planes each to 40 ranks.
	if _, err := Run(Config{System: cluster.RICC(), Nodes: 40, Size: SizeXS, Iters: 1, Impl: Serial}); err == nil {
		t.Error("oversubscribed decomposition accepted")
	}
}

// TestSerialBreakdownPopulated: the serial implementation reports its
// compute/communication split (the Fig. 9a ratio annotation).
func TestSerialBreakdownPopulated(t *testing.T) {
	res, err := Run(Config{
		System: cluster.Cichlid(), Nodes: 2, Size: SizeXS, Iters: 2,
		Impl: Serial, Mode: OfficialInit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompTime <= 0 || res.CommTime <= 0 {
		t.Fatalf("breakdown comp=%v comm=%v, want both positive", res.CompTime, res.CommTime)
	}
	if res.CompTime+res.CommTime > res.Elapsed+res.Elapsed/10 {
		t.Fatalf("breakdown %v+%v exceeds elapsed %v", res.CompTime, res.CommTime, res.Elapsed)
	}
}

// TestOverlapHierarchy: on a communication-heavy configuration the paper's
// ordering must hold: serial is slowest, and clMPI at least matches the
// hand-optimized implementation.
func TestOverlapHierarchy(t *testing.T) {
	run := func(impl Impl) *Result {
		res, err := Run(Config{
			System: cluster.Cichlid(), Nodes: 4, Size: SizeS, Iters: 4,
			Impl: impl, Mode: OfficialInit,
		})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		return res
	}
	serial, hand, cl := run(Serial), run(HandOpt), run(CLMPI)
	if hand.GFLOPS <= serial.GFLOPS {
		t.Errorf("hand-optimized (%.2f GF) should beat serial (%.2f GF)", hand.GFLOPS, serial.GFLOPS)
	}
	if cl.GFLOPS < hand.GFLOPS {
		t.Errorf("clMPI (%.2f GF) should at least match hand-optimized (%.2f GF)", cl.GFLOPS, hand.GFLOPS)
	}
}

func TestGosaIndependentOfDecomposition(t *testing.T) {
	var prev float64
	for i, nodes := range []int{1, 2, 4} {
		res, err := Run(Config{
			System: cluster.RICC(), Nodes: nodes, Size: SizeXS, Iters: 3,
			Impl: CLMPI, Mode: OfficialInit, Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && relDiff(res.Gosa, prev) > 1e-9 {
			t.Fatalf("gosa at %d nodes %v differs from %v", nodes, res.Gosa, prev)
		}
		prev = res.Gosa
	}
}

// TestGPUAwareMatchesReference extends the correctness matrix to the §II
// comparison implementation.
func TestGPUAwareMatchesReference(t *testing.T) {
	const iters = 3
	wantGrid, _ := Reference(SizeXS, iters, ScrambledInit)
	for _, nodes := range []int{1, 2, 4} {
		res, err := Run(Config{
			System: cluster.RICC(), Nodes: nodes, Size: SizeXS, Iters: iters,
			Impl: GPUAware, Mode: ScrambledInit, Verify: true,
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		for i, v := range res.Grid {
			if v != wantGrid[i] {
				t.Fatalf("nodes=%d grid[%d] = %v, reference %v", nodes, i, v, wantGrid[i])
			}
		}
	}
}

// TestGPUAwareBetweenHandOptAndCLMPI pins the §II story on Cichlid at 4
// nodes: GPU-aware MPI fixes the transfer choice (beating the pinned
// hand-optimized code) but keeps the host-driven schedule, so clMPI still
// at least matches it.
func TestGPUAwareBetweenHandOptAndCLMPI(t *testing.T) {
	run := func(impl Impl) float64 {
		res, err := Run(Config{
			System: cluster.Cichlid(), Nodes: 4, Size: SizeS, Iters: 4,
			Impl: impl, Mode: OfficialInit,
		})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		return res.GFLOPS
	}
	hand, gpu, cl := run(HandOpt), run(GPUAware), run(CLMPI)
	if gpu <= hand {
		t.Errorf("gpu-aware (%.2f GF) should beat hand-optimized pinned staging (%.2f GF)", gpu, hand)
	}
	if cl < gpu {
		t.Errorf("clMPI (%.2f GF) should at least match gpu-aware (%.2f GF)", cl, gpu)
	}
}

// TestOutOfOrderCLMPIMatchesReference: the single-OOO-queue variant is
// numerically identical to the reference and to the three-queue variant.
func TestOutOfOrderCLMPIMatchesReference(t *testing.T) {
	const iters = 4
	wantGrid, _ := Reference(SizeXS, iters, ScrambledInit)
	for _, nodes := range []int{1, 2, 4} {
		res, err := Run(Config{
			System: cluster.Cichlid(), Nodes: nodes, Size: SizeXS, Iters: iters,
			Impl: CLMPIOutOfOrder, Mode: ScrambledInit, Verify: true,
		})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		for i, v := range res.Grid {
			if v != wantGrid[i] {
				t.Fatalf("nodes=%d grid[%d] = %v, reference %v", nodes, i, v, wantGrid[i])
			}
		}
	}
}

// TestOutOfOrderCLMPIOverlaps: the single OOO queue must preserve the
// overlap benefit — within 25% of the three-in-order-queue variant on the
// communication-heavy configuration.
func TestOutOfOrderCLMPIOverlaps(t *testing.T) {
	run := func(impl Impl) float64 {
		res, err := Run(Config{
			System: cluster.Cichlid(), Nodes: 4, Size: SizeS, Iters: 4,
			Impl: impl, Mode: OfficialInit,
		})
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		return res.GFLOPS
	}
	inOrder, ooo := run(CLMPI), run(CLMPIOutOfOrder)
	if ooo < 0.75*inOrder {
		t.Fatalf("OOO variant %.2f GF lost the overlap (3-queue: %.2f GF)", ooo, inOrder)
	}
}

// TestCheckpointing exercises the §VI file-I/O integration end to end:
// iterate with periodic checkpoints, then verify every rank's node-local
// file holds exactly its final device state.
func TestCheckpointing(t *testing.T) {
	res, err := Run(Config{
		System: cluster.RICC(), Nodes: 3, Size: SizeXS, Iters: 4,
		Impl: CLMPI, Mode: ScrambledInit, Verify: true,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CheckpointVerified {
		t.Fatal("checkpoint files do not match the final device state")
	}
	// Numerics are unaffected by checkpointing.
	wantGrid, _ := Reference(SizeXS, 4, ScrambledInit)
	for i, v := range res.Grid {
		if v != wantGrid[i] {
			t.Fatalf("grid[%d] diverged under checkpointing", i)
		}
	}
}

func TestCheckpointingRequiresCLMPI(t *testing.T) {
	_, err := Run(Config{
		System: cluster.RICC(), Nodes: 2, Size: SizeXS, Iters: 2,
		Impl: Serial, CheckpointEvery: 1,
	})
	if err == nil {
		t.Fatal("checkpointing on serial impl accepted")
	}
}

// TestCheckpointOverheadBounded: the checkpoint writes may dominate a small
// problem (the modelled disk is slow), but they must never cost more than
// their fully serialized sum — i.e. the pipeline may degenerate, not
// regress.
func TestCheckpointOverheadBounded(t *testing.T) {
	const iters, every, nodes = 4, 2, 2
	plain, err := Run(Config{
		System: cluster.RICC(), Nodes: nodes, Size: SizeS, Iters: iters,
		Impl: CLMPI, Mode: OfficialInit,
	})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Run(Config{
		System: cluster.RICC(), Nodes: nodes, Size: SizeS, Iters: iters,
		Impl: CLMPI, Mode: OfficialInit, CheckpointEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck.Elapsed <= plain.Elapsed {
		t.Fatalf("checkpointing was free: %v vs %v", ck.Elapsed, plain.Elapsed)
	}
	// Serialized upper bound: per checkpoint, one grid pack + D2H staging
	// + disk write (with per-chunk seeks) on the slowest (largest) rank.
	sys := cluster.RICC()
	gridBytes := float64((SizeS.I - 2 + 1) / nodes * SizeS.J * SizeS.K * 4)
	perCkpt := gridBytes/100e9 + gridBytes/sys.GPU.PinnedBW + gridBytes/sys.Disk.BW
	serialized := plain.Elapsed +
		time.Duration((iters/every)*int(perCkpt*1e9)) +
		time.Duration(iters/every)*4*sys.Disk.Seek
	if ck.Elapsed > serialized {
		t.Fatalf("checkpointing slower than fully serialized bound: %v > %v", ck.Elapsed, serialized)
	}
}

// TestPureCostCellAllocatesNoGrid: a figure cell that does not verify is
// pure cost, so it allocates far less than one rank's share of the grid
// (its two float32 copies of 66 planes here). That holds for the
// host-staged halos of Serial and HandOpt too: their staging planes are
// never written.
func TestPureCostCellAllocatesNoGrid(t *testing.T) {
	const nodes = 4
	lo, hi := decompose(SizeM, nodes, 0)
	rankGrid := uint64(hi-lo+2) * uint64(SizeM.J) * uint64(SizeM.K) * 4
	for _, impl := range []Impl{Serial, HandOpt, CLMPI} {
		// Two collections empty the pools, so a recycled block cannot
		// hide an allocation.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(Config{System: cluster.Cichlid(), Nodes: nodes, Size: SizeM, Iters: 2, Impl: impl})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= rankGrid/8 {
			t.Errorf("%v: cell allocated %d bytes, want < %d (1/8 of one rank's grid)", impl, got, rankGrid/8)
		} else {
			t.Logf("%v: cell allocated %d bytes; one rank's grid is %d", impl, got, rankGrid)
		}
	}
}

package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Large-world matching scaling: how the MPI runtime's message-matching
// engine behaves when the job is much bigger than the paper's four-node
// testbed. Each point runs a dense non-blocking exchange — every rank keeps
// `outstanding` receives posted and `outstanding` sends in flight, a slice
// of them through AnySource/AnyTag wildcards — and reports virtual
// completion time, host simulation cost, and the peak matching-queue depths
// the engine saw. Points are independent simulations and run through the
// host-parallel sweep runner.

// MatchPoint is one cell of the matching scaling sweep.
type MatchPoint struct {
	Ranks       int
	Outstanding int // outstanding ops per rank (clamped to Ranks-1)
	WildPct     int // percentage of receives using a wildcard
	Rounds      int
	Messages    int     // point-to-point messages matched
	SimMS       float64 // virtual completion time, milliseconds (deterministic)
	HostMS      float64 // host wall-clock cost of simulating the point
	// Peak matching-queue depths across all ranks, from the engine's
	// high-water tracking: posted receives and unexpected messages.
	MaxPostedHW     int
	MaxUnexpectedHW int
	// Parts and Workers describe the partitioned engine configuration that
	// produced the point (both zero for a serial run). Windows, Stalls, and
	// Adverts are the engine's scheduling counters — windows executed, shard
	// blocks, and floor advertisements. They depend on host scheduling (a
	// worker that runs ahead blocks more often), so like HostMS they describe
	// the run that produced the point and must never be compared for
	// determinism.
	Parts   int    `json:"Parts,omitempty"`
	Workers int    `json:"Workers,omitempty"`
	Windows uint64 `json:"Windows,omitempty"`
	Stalls  uint64 `json:"Stalls,omitempty"`
	Adverts uint64 `json:"Adverts,omitempty"`
}

// matchWorkload runs the dense exchange on a freshly built world and
// returns the filled point. Message k of rank r goes to rank (r+1+k)%n with
// tag k, so for outstanding <= n-1 every (source, destination) pair carries
// exactly one message per round — which keeps every wildcard receive
// unambiguous (it can only ever pair with the one message its concrete
// coordinate pins down) and the exchange deadlock-free in any interleaving.
func matchWorkload(sys cluster.System, ranks, outstanding, wildPct, rounds int) (MatchPoint, error) {
	if outstanding > ranks-1 {
		outstanding = ranks - 1
	}
	if outstanding < 1 || rounds < 1 {
		return MatchPoint{}, fmt.Errorf("matchscale: need >=2 ranks, >=1 round (got ranks=%d rounds=%d)", ranks, rounds)
	}
	if sys.MaxNodes < ranks {
		// The guard models the physical testbed; the scaling sweep is
		// explicitly about worlds beyond it.
		sys.MaxNodes = ranks
	}
	start := time.Now()
	eng := sim.NewEngine()
	w := mpi.NewWorld(cluster.New(eng, sys, ranks))
	w.LaunchRanks("matchscale", matchRankBody(outstanding, wildPct, rounds))
	if err := eng.Run(); err != nil {
		return MatchPoint{}, fmt.Errorf("matchscale ranks=%d: %w", ranks, err)
	}
	pt := MatchPoint{
		Ranks: ranks, Outstanding: outstanding, WildPct: wildPct, Rounds: rounds,
		Messages: ranks * outstanding * rounds,
		SimMS:    eng.Now().Seconds() * 1e3,
		HostMS:   float64(time.Since(start)) / 1e6,
	}
	for r := 0; r < ranks; r++ {
		p, u := w.Comm().MatchQueueHighWater(r)
		if p > pt.MaxPostedHW {
			pt.MaxPostedHW = p
		}
		if u > pt.MaxUnexpectedHW {
			pt.MaxUnexpectedHW = u
		}
	}
	return pt, nil
}

// matchRankBody is the dense-exchange per-rank program, shared by the serial
// and partitioned drivers (it only touches the endpoint's own world).
func matchRankBody(outstanding, wildPct, rounds int) func(p *sim.Proc, ep *mpi.Endpoint) {
	const msgBytes = 256 // eager: keeps the workload matching-bound
	return func(p *sim.Proc, ep *mpi.Endpoint) {
		comm := ep.World().Comm()
		n, r := ep.Size(), ep.Rank()
		recvBufs := make([][]byte, outstanding)
		for j := range recvBufs {
			recvBufs[j] = make([]byte, msgBytes)
		}
		payload := make([]byte, msgBytes)
		for round := 0; round < rounds; round++ {
			reqs := make([]*mpi.Request, 0, 2*outstanding)
			for j := 0; j < outstanding; j++ {
				src, tag := ((r-1-j)%n+n)%n, j
				if j*100 < outstanding*wildPct {
					if j%2 == 0 {
						src = mpi.AnySource
					} else {
						tag = mpi.AnyTag
					}
				}
				req, err := ep.Irecv(p, recvBufs[j], src, tag, mpi.Bytes, comm)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, req)
			}
			for j := 0; j < outstanding; j++ {
				req, err := ep.Isend(p, payload, (r+1+j)%n, j, mpi.Bytes, comm)
				if err != nil {
					panic(err)
				}
				reqs = append(reqs, req)
			}
			if err := mpi.Waitall(p, reqs...); err != nil {
				panic(err)
			}
			if err := ep.Barrier(p, comm); err != nil {
				panic(err)
			}
		}
	}
}

// matchWorkloadPart runs the dense exchange on a world partitioned into
// `parts` shards driven by `workers` host cores, and returns the filled
// point. The event streams — and therefore SimMS and the high-water marks —
// are a deterministic function of (sys, ranks, outstanding, wildPct, rounds,
// parts) alone; workers only changes HostMS and the scheduling counters
// (Windows/Stalls/Adverts).
func matchWorkloadPart(sys cluster.System, ranks, outstanding, wildPct, rounds, parts, workers int, sm *obs.Sim) (MatchPoint, error) {
	if outstanding > ranks-1 {
		outstanding = ranks - 1
	}
	if outstanding < 1 || rounds < 1 {
		return MatchPoint{}, fmt.Errorf("matchscale: need >=2 ranks, >=1 round (got ranks=%d rounds=%d)", ranks, rounds)
	}
	if parts > ranks {
		return MatchPoint{}, fmt.Errorf("matchscale: %d ranks cannot span %d partitions", ranks, parts)
	}
	if sys.MaxNodes < ranks {
		sys.MaxNodes = ranks
	}
	start := time.Now()
	pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, ranks, parts))
	pw := mpi.NewPartWorld(pe, sys, ranks)
	if sm != nil {
		pw.AttachObs(obs.NewPDES(sm, pe.Parts()))
	}
	pw.LaunchRanks("matchscale", matchRankBody(outstanding, wildPct, rounds))
	if err := pw.Run(workers); err != nil {
		return MatchPoint{}, fmt.Errorf("matchscale ranks=%d parts=%d: %w", ranks, parts, err)
	}
	pt := MatchPoint{
		Ranks: ranks, Outstanding: outstanding, WildPct: wildPct, Rounds: rounds,
		Messages: ranks * outstanding * rounds,
		SimMS:    pe.Now().Seconds() * 1e3,
		HostMS:   float64(time.Since(start)) / 1e6,
		Parts:    parts, Workers: workers,
		Windows: pe.Windows(), Stalls: pe.Stalls(), Adverts: pe.Adverts(),
	}
	for r := 0; r < ranks; r++ {
		p, u := pw.MatchQueueHighWater(r)
		if p > pt.MaxPostedHW {
			pt.MaxPostedHW = p
		}
		if u > pt.MaxUnexpectedHW {
			pt.MaxUnexpectedHW = u
		}
	}
	return pt, nil
}

// MatchScalePointObs runs a single cell of the matching-scaling sweep: the
// dense wildcard exchange at one rank count, on the serial engine or — for
// parts > 1 — on a parts-way partitioned engine driven by `workers` host
// workers. This is the unit the serve daemon shards; callers running a
// whole rank grid want MatchScale or MatchScalePartitioned. A partitioned
// point attaches a fresh obs.PDES aggregator to its engine, so stall
// attribution and flight-recorder events land in sm's registry and
// recorder; sm may be nil.
func MatchScalePointObs(sys cluster.System, ranks, outstanding, wildPct, rounds, parts, workers int, sm *obs.Sim) (MatchPoint, error) {
	if parts > 1 {
		return matchWorkloadPart(sys, ranks, outstanding, wildPct, rounds, parts, workers, sm)
	}
	return matchWorkload(sys, ranks, outstanding, wildPct, rounds)
}

// MatchScale runs the dense wildcard exchange at each rank count.
func MatchScale(sys cluster.System, rankCounts []int, outstanding, wildPct, rounds int) ([]MatchPoint, error) {
	return sweep.Map(len(rankCounts), func(i int) (MatchPoint, error) {
		return matchWorkload(sys, rankCounts[i], outstanding, wildPct, rounds)
	})
}

// MatchScalePartitioned runs the dense wildcard exchange at each rank count
// on a `parts`-way partitioned engine driven by `workers` host cores per
// point. Every point claims `workers` sweep slots, so a host-parallel sweep
// of host-parallel runs still respects the configured pool width. parts <= 1
// is MatchScale — the serial engine, one slot per point.
func MatchScalePartitioned(sys cluster.System, rankCounts []int, outstanding, wildPct, rounds, parts, workers int) ([]MatchPoint, error) {
	return MatchScalePartitionedObs(sys, rankCounts, outstanding, wildPct, rounds, parts, workers, nil)
}

// MatchScalePartitionedObs is MatchScalePartitioned with a host-time
// observability aggregator threaded into every partitioned point (nil = no
// observability; serial points never attach one).
func MatchScalePartitionedObs(sys cluster.System, rankCounts []int, outstanding, wildPct, rounds, parts, workers int, sm *obs.Sim) ([]MatchPoint, error) {
	if parts <= 1 {
		return MatchScale(sys, rankCounts, outstanding, wildPct, rounds)
	}
	if workers <= 0 {
		workers = parts
	}
	return sweep.MapWeighted(workers, len(rankCounts), func(i int) (MatchPoint, error) {
		return matchWorkloadPart(sys, rankCounts[i], outstanding, wildPct, rounds, parts, workers, sm)
	})
}

// MatchScaleTable renders the sweep for the CLI tools. Partitioned points
// (any Parts > 0) add the partition geometry and the scheduling counters
// (windows, stalls, adverts — host-scheduling dependent, like host ms) as
// extra columns.
func MatchScaleTable(points []MatchPoint) (headers []string, rows [][]string) {
	headers = []string{"ranks", "out/rank", "wild%", "messages", "sim ms", "host ms", "peak posted", "peak unexpected"}
	partitioned := false
	for _, pt := range points {
		if pt.Parts > 0 {
			partitioned = true
			break
		}
	}
	if partitioned {
		headers = append(headers, "parts", "workers", "windows", "stalls", "adverts")
	}
	for _, pt := range points {
		row := []string{
			fmt.Sprintf("%d", pt.Ranks),
			fmt.Sprintf("%d", pt.Outstanding),
			fmt.Sprintf("%d", pt.WildPct),
			fmt.Sprintf("%d", pt.Messages),
			fmt.Sprintf("%.3f", pt.SimMS),
			fmt.Sprintf("%.1f", pt.HostMS),
			fmt.Sprintf("%d", pt.MaxPostedHW),
			fmt.Sprintf("%d", pt.MaxUnexpectedHW),
		}
		if partitioned {
			row = append(row,
				fmt.Sprintf("%d", pt.Parts),
				fmt.Sprintf("%d", pt.Workers),
				fmt.Sprintf("%d", pt.Windows),
				fmt.Sprintf("%d", pt.Stalls),
				fmt.Sprintf("%d", pt.Adverts))
		}
		rows = append(rows, row)
	}
	return headers, rows
}

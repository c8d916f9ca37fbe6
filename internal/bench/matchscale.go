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

// matchWorkload runs the dense exchange once and returns the filled point:
// on the serial engine when parts <= 1, else on a parts-way partitioned
// engine driven by `workers` host cores. Message k of rank r goes to rank
// (r+1+k)%n with tag k, so for outstanding <= n-1 every (source,
// destination) pair carries exactly one message per round — which keeps
// every wildcard receive unambiguous (it can only ever pair with the one
// message its concrete coordinate pins down) and the exchange deadlock-free
// in any interleaving. A partitioned point's event streams — and therefore
// SimMS and the high-water marks — are a deterministic function of (sys,
// ranks, outstanding, wildPct, rounds, parts) alone; workers only changes
// HostMS and the scheduling counters (Windows/Stalls/Adverts). attach, when
// non-nil, instruments the partitioned world before its ranks launch.
func matchWorkload(sys cluster.System, ranks, outstanding, wildPct, rounds, parts, workers int, attach func(*mpi.PartWorld)) (MatchPoint, error) {
	switch {
	case outstanding < 1:
		return MatchPoint{}, fmt.Errorf("matchscale: need >=1 outstanding op per rank (got %d)", outstanding)
	case ranks < 2 || rounds < 1:
		return MatchPoint{}, fmt.Errorf("matchscale: need >=2 ranks, >=1 round (got ranks=%d rounds=%d)", ranks, rounds)
	case parts > ranks:
		return MatchPoint{}, fmt.Errorf("matchscale: %d ranks cannot span %d partitions", ranks, parts)
	}
	outstanding = min(outstanding, ranks-1)
	if sys.MaxNodes < ranks {
		// The guard models the physical testbed; the scaling sweep is
		// explicitly about worlds beyond it.
		sys.MaxNodes = ranks
	}
	pt := MatchPoint{
		Ranks: ranks, Outstanding: outstanding, WildPct: wildPct, Rounds: rounds,
		Messages: ranks * outstanding * rounds,
	}
	start := time.Now()
	body := matchRankBody(outstanding, wildPct, rounds)
	var end sim.Time
	var highWater func(rank int) (posted, unexpected int)
	if parts <= 1 {
		eng := sim.NewEngine()
		w := mpi.NewWorld(cluster.New(eng, sys, ranks))
		w.LaunchRanks("matchscale", body)
		if err := eng.Run(); err != nil {
			return MatchPoint{}, fmt.Errorf("matchscale ranks=%d: %w", ranks, err)
		}
		end, highWater = eng.Now(), w.Comm().MatchQueueHighWater
	} else {
		pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(sys, ranks, parts))
		pw := mpi.NewPartWorld(pe, sys, ranks)
		if attach != nil {
			attach(pw)
		}
		pw.LaunchRanks("matchscale", body)
		if err := pw.Run(workers); err != nil {
			return MatchPoint{}, fmt.Errorf("matchscale ranks=%d parts=%d: %w", ranks, parts, err)
		}
		end, highWater = pe.Now(), pw.MatchQueueHighWater
		pt.Parts, pt.Workers = parts, workers
		pt.Windows, pt.Stalls, pt.Adverts = pe.Windows(), pe.Stalls(), pe.Adverts()
	}
	pt.SimMS = end.Seconds() * 1e3
	pt.HostMS = float64(time.Since(start)) / 1e6
	for r := 0; r < ranks; r++ {
		p, u := highWater(r)
		pt.MaxPostedHW = max(pt.MaxPostedHW, p)
		pt.MaxUnexpectedHW = max(pt.MaxUnexpectedHW, u)
	}
	return pt, nil
}

// attachObs returns the hook that attaches a fresh obs.PDES for sm to a
// partitioned world (nil = no observability).
func attachObs(sm *obs.Sim) func(*mpi.PartWorld) {
	if sm == nil {
		return nil
	}
	return func(pw *mpi.PartWorld) { pw.AttachObs(obs.NewPDES(sm, pw.Parts())) }
}

// matchRankBody is the dense-exchange per-rank program, shared by the serial
// and partitioned engines (it only touches the endpoint's own world).
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

// MatchScalePointObs runs a single cell of the matching-scaling sweep: the
// dense wildcard exchange at one rank count, on the serial engine or — for
// parts > 1 — on a parts-way partitioned engine with one host worker per
// partition. This is the unit the serve daemon shards. A partitioned point
// attaches a fresh obs.PDES aggregator to its engine, so stall attribution
// and flight-recorder events land in sm's registry and recorder; sm may be
// nil.
func MatchScalePointObs(sys cluster.System, ranks, outstanding, wildPct, rounds, parts int, sm *obs.Sim) (MatchPoint, error) {
	return matchWorkload(sys, ranks, outstanding, wildPct, rounds, parts, parts, attachObs(sm))
}

// MatchScalePartitionedObs runs MatchScalePointObs at each rank count. A
// partitioned point claims one sweep slot per partition, so a host-parallel
// sweep of host-parallel runs still respects the configured pool width.
func MatchScalePartitionedObs(sys cluster.System, rankCounts []int, outstanding, wildPct, rounds, parts int, sm *obs.Sim) ([]MatchPoint, error) {
	return sweep.MapWeighted(parts, len(rankCounts), func(i int) (MatchPoint, error) {
		return MatchScalePointObs(sys, rankCounts[i], outstanding, wildPct, rounds, parts, sm)
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

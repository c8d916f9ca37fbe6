package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// matchWorkload is the dense wildcard exchange at a rank count in the
// thousands, through the public mpi API: every rank keeps `outstanding`
// receives posted and `outstanding` sends in flight per round, then
// meets the others at a barrier. Message j of rank r goes to rank
// (r+1+j) mod n with tag j, so each (source, destination) pair carries one
// message per round and every wildcard receive can match only one
// message. The seed picks which receives are wildcards — a fixed share of
// each rank's receives, each matching any source or any tag.
//
// A pass builds and runs the exchange once on the serial engine (phase 1)
// and once on a 4-way partitioned world (phase 2); set-up is the two
// worlds' construction and rank launch.
type matchWorkload struct {
	ranks, outstanding, rounds, parts int
	sys                               cluster.System
	// kinds[r][j] says how rank r posts receive j.
	kinds [][]recvKind

	stats matchStats // summed over traced passes
}

type recvKind uint8

const (
	exact recvKind = iota
	anySource
	anyTag
)

// wildPct is the share of each rank's receives that use a wildcard.
const wildPct = 25

const msgBytes = 256 // eager: keeps the exchange matching-bound

type matchStats struct {
	passes                         int
	clusterNew, launch, run        time.Duration
	partSetup, partRun             time.Duration
	windows, stalls, adverts       uint64
	procs                          int
	timers                         uint64
	messages, postedHW, unexpectHW int
}

func newMatchScale(seed int64, smoke bool) *matchWorkload {
	w := &matchWorkload{ranks: 2048, outstanding: 16, rounds: 2, parts: 4, sys: cluster.RICC()}
	if smoke {
		w.ranks, w.outstanding = 64, 8
	}
	if w.sys.MaxNodes < w.ranks {
		// The preset's node cap models the paper's testbed; this
		// workload is about worlds beyond it.
		w.sys.MaxNodes = w.ranks
	}
	rng := rand.New(rand.NewSource(seed))
	wild := w.outstanding * wildPct / 100
	w.kinds = make([][]recvKind, w.ranks)
	for r := range w.kinds {
		k := make([]recvKind, w.outstanding)
		for _, j := range rng.Perm(w.outstanding)[:wild] {
			k[j] = anySource + recvKind(rng.Intn(2))
		}
		w.kinds[r] = k
	}
	return w
}

func (w *matchWorkload) seeded() bool { return true }

// body is the per-rank program. Each payload carries (source, tag, round);
// after every round the rank checks that receive j got exactly the message
// its concrete coordinates pin down and counts it in good[rank].
func (w *matchWorkload) body(good []int) func(p *sim.Proc, ep *mpi.Endpoint) {
	return func(p *sim.Proc, ep *mpi.Endpoint) {
		comm := ep.World().Comm()
		n, r := ep.Size(), ep.Rank()
		recv := make([][]byte, w.outstanding)
		send := make([][]byte, w.outstanding)
		for j := range recv {
			recv[j] = make([]byte, msgBytes)
			send[j] = make([]byte, msgBytes)
		}
		reqs := make([]*mpi.Request, 0, 2*w.outstanding)
		for round := 0; round < w.rounds; round++ {
			reqs = reqs[:0]
			for j := 0; j < w.outstanding; j++ {
				src, tag := ((r-1-j)%n+n)%n, j
				switch w.kinds[r][j] {
				case anySource:
					src = mpi.AnySource
				case anyTag:
					tag = mpi.AnyTag
				}
				req, err := ep.Irecv(p, recv[j], src, tag, mpi.Bytes, comm)
				if err != nil {
					return // the missing messages fail the pass
				}
				reqs = append(reqs, req)
			}
			for j := 0; j < w.outstanding; j++ {
				binary.LittleEndian.PutUint32(send[j][0:], uint32(r))
				binary.LittleEndian.PutUint32(send[j][4:], uint32(j))
				binary.LittleEndian.PutUint32(send[j][8:], uint32(round))
				req, err := ep.Isend(p, send[j], (r+1+j)%n, j, mpi.Bytes, comm)
				if err != nil {
					return
				}
				reqs = append(reqs, req)
			}
			if mpi.Waitall(p, reqs...) != nil {
				return
			}
			for j := 0; j < w.outstanding; j++ {
				b := recv[j]
				if int(binary.LittleEndian.Uint32(b[0:])) == ((r-1-j)%n+n)%n &&
					int(binary.LittleEndian.Uint32(b[4:])) == j &&
					int(binary.LittleEndian.Uint32(b[8:])) == round {
					good[r]++
				}
			}
			if ep.Barrier(p, comm) != nil {
				return
			}
		}
	}
}

func (w *matchWorkload) pass(traced bool) (passResult, error) {
	pr := passResult{parts: map[string]float64{}, model: map[string]float64{}}
	want := w.ranks * w.outstanding * w.rounds
	var st matchStats

	// Set-up: both worlds, built and launched.
	t0 := time.Now()
	eng := sim.NewEngine()
	world := mpi.NewWorld(cluster.New(eng, w.sys, w.ranks))
	st.clusterNew = time.Since(t0)
	serialGood := make([]int, w.ranks)
	world.LaunchRanks("matchscale", w.body(serialGood))
	st.launch = time.Since(t0) - st.clusterNew
	t1 := time.Now()
	pe := sim.NewPartitionedEngineMatrix(cluster.LookaheadMatrix(w.sys, w.ranks, w.parts))
	pw := mpi.NewPartWorld(pe, w.sys, w.ranks)
	partGood := make([]int, w.ranks)
	pw.LaunchRanks("matchscale", w.body(partGood))
	st.partSetup = time.Since(t1)
	pr.setup = time.Since(t0)

	// Phase 1: the serial engine.
	t2 := time.Now()
	serialErr := eng.Run()
	pr.phase1 = time.Since(t2)
	st.run = pr.phase1
	// Phase 2: the partitioned engine.
	t3 := time.Now()
	partErr := pw.Run(fixedWorkers)
	pr.phase2 = time.Since(t3)
	st.partRun = pr.phase2
	pr.parts["matchscale.serial_s"] = pr.phase1.Seconds()
	pr.parts["matchscale.part_s"] = pr.phase2.Seconds()

	if serialErr != nil || partErr != nil {
		return pr, fmt.Errorf("matchscale: serial: %v; partitioned: %v", serialErr, partErr)
	}
	// Every expected message must have arrived intact, on both engines.
	serialMsgs, partMsgs := sum(serialGood), sum(partGood)
	pr.attempted = 2 * want
	pr.failed = (want - serialMsgs) + (want - partMsgs)
	if pr.failed > 0 {
		pr.problems = append(pr.problems, fmt.Sprintf("%d serial and %d partitioned messages of %d arrived intact", serialMsgs, partMsgs, want))
	}

	serialMS := eng.Now().Seconds() * 1e3
	partMS := pe.Now().Seconds() * 1e3
	pr.model["serial_sim_ms"] = serialMS
	pr.model["part_sim_ms"] = partMS
	for r := 0; r < w.ranks; r++ {
		p, u := world.Comm().MatchQueueHighWater(r)
		st.postedHW, st.unexpectHW = max(st.postedHW, p), max(st.unexpectHW, u)
	}
	var partHW [2]int
	for r := 0; r < w.ranks; r++ {
		p, u := pw.MatchQueueHighWater(r)
		partHW[0], partHW[1] = max(partHW[0], p), max(partHW[1], u)
	}
	pr.digest = vtDigest(fmt.Sprintf("serial %x %d %d %d\npart %x %d %d %d\n",
		math.Float64bits(serialMS), serialMsgs, st.postedHW, st.unexpectHW,
		math.Float64bits(partMS), partMsgs, partHW[0], partHW[1]))

	if traced {
		es := eng.Stats()
		st.procs, st.timers, st.messages = es.Procs, es.Timers, serialMsgs
		st.windows, st.stalls, st.adverts = pe.Windows(), pe.Stalls(), pe.Adverts()
		w.stats.add(st)
	}
	return pr, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func (s *matchStats) add(o matchStats) {
	s.passes++
	s.clusterNew += o.clusterNew
	s.launch += o.launch
	s.run += o.run
	s.partSetup += o.partSetup
	s.partRun += o.partRun
	s.windows += o.windows
	s.stalls += o.stalls
	s.adverts += o.adverts
	s.procs, s.timers, s.messages = o.procs, o.timers, o.messages
	s.postedHW, s.unexpectHW = o.postedHW, o.unexpectHW
}

func (w *matchWorkload) layerMetrics(m map[string]float64, _ *cpuShares) error {
	s := w.stats
	if s.passes == 0 {
		return nil
	}
	n := float64(s.passes)
	m["cluster.new_s"] = s.clusterNew.Seconds() / n
	m["mpi.launch_s"] = s.launch.Seconds() / n
	m["sim.run_s"] = s.run.Seconds() / n
	m["sim.part_setup_s"] = s.partSetup.Seconds() / n
	m["sim.part_run_s"] = s.partRun.Seconds() / n
	m["sim.part_windows"] = float64(s.windows) / n
	m["sim.part_stalls"] = float64(s.stalls) / n
	m["sim.part_adverts"] = float64(s.adverts) / n
	m["sim.procs"] = float64(s.procs)
	m["sim.timers"] = float64(s.timers)
	if s.run > 0 {
		m["sim.events_per_s"] = float64(s.timers) * n / s.run.Seconds()
	}
	m["mpi.messages"] = float64(s.messages)
	m["mpi.peak_posted"] = float64(s.postedHW)
	m["mpi.peak_unexpected"] = float64(s.unexpectHW)
	return nil
}

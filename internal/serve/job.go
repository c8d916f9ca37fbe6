// Package serve turns the sweep machinery into a long-running
// "what-if my cluster" service: a job names a simulated system, a workload,
// and a parameter grid; the service shards the grid's points across a bounded
// worker pool (internal/sweep, so parallel output is byte-identical to a
// serial run) and content-addresses the finished result by a canonical hash
// of the job. Because every simulation is deterministic, two jobs with the
// same canonical spec have the same result bytes forever — a repeat
// submission is a cache hit, never a re-simulation.
//
// The package splits into four pieces: the job spec and its in-process
// runner (this file), the canonical hash (hash.go), the LRU/disk result
// cache (cache.go), and the job manager + HTTP server (manager.go,
// server.go) that cmd/clmpi-serve mounts.
package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// maxJobPoints bounds the grid one job may expand to, so a single request
// cannot monopolize the daemon.
const maxJobPoints = 4096

// maxP2PBytes bounds a p2p message size (1 GiB).
const maxP2PBytes = 1 << 30

// JobSpec describes one sweep job. Zero-valued grid fields take the paper's
// defaults, so the smallest useful job is {"system":"cichlid"} — the full
// Fig. 8 bandwidth sweep. Grid order is semantic: result points follow it,
// so two specs with reordered grids are different jobs (different result
// bytes) and hash differently. JSON field order, by contrast, is not
// semantic — Normalize canonicalizes it away.
type JobSpec struct {
	// System names a cluster preset (case-insensitive; see
	// cluster.PresetNames) or, for a daemon started with -systems, one of
	// its registered spec files. Leave empty when SystemSpec is given.
	System string `json:"system,omitempty"`
	// SystemSpec is an inline system description — a clmpi-system/v1
	// document as produced by cluster.EncodeSpec — for clusters the daemon
	// has no preset for. Normalize decodes it strictly and re-encodes it
	// canonically (compact), so the content address depends only on the
	// described system, never on the client's JSON formatting; an inline
	// spec identical to a built-in preset collapses to the preset's name
	// and content-addresses the same cache entry.
	SystemSpec json.RawMessage `json:"system_spec,omitempty"`
	// Workload selects the experiment family: "p2p" (default) measures
	// device→device bandwidth per (strategy, message size) on a two-node
	// world; "himeno" measures sustained GFLOPS per (implementation,
	// node count).
	Workload string `json:"workload,omitempty"`
	// Strategies is the p2p strategy grid, in clmpi.ParseStrategy
	// notation including pipelined(N). Default: the Fig. 8 set.
	Strategies []string `json:"strategies,omitempty"`
	// Sizes is the p2p message-size grid in bytes. Default: Fig. 8's
	// 64 KiB … 64 MiB sweep.
	Sizes []int64 `json:"sizes,omitempty"`
	// Impls is the himeno implementation grid (himeno.ParseImpl names).
	// Default: serial, hand-optimized, clMPI.
	Impls []string `json:"impls,omitempty"`
	// Nodes is the himeno node-count grid. Default: bench.Fig9Nodes for
	// the system.
	Nodes []int `json:"nodes,omitempty"`
	// Size is the himeno problem size name (XS, S, M, L). Default XS —
	// the service favors snappy answers; submit M for paper-scale runs.
	Size string `json:"size,omitempty"`
	// Iters is the himeno iteration count (default 2, max 64).
	Iters int `json:"iters,omitempty"`
	// Ranks is the matchscale rank-count grid (workload "matchscale"
	// measures the MPI matching engine's large-world scaling, one point per
	// rank count). Default: 256, 1024, 4096.
	Ranks []int `json:"ranks,omitempty"`
	// ParallelWorld runs each matchscale point on a partitioned engine with
	// this many partitions and host workers (0 or 1 = the serial engine).
	// Such a point occupies ParallelWorld worker-pool slots while it runs,
	// so a job of host-parallel points still respects the daemon's
	// configured pool width.
	ParallelWorld int `json:"parallel_world,omitempty"`
}

// PointResult is one finished grid point. The p2p and himeno fields are
// mutually exclusive; omitempty keeps the serialized form free of the unused
// family.
type PointResult struct {
	Strategy string  `json:"strategy,omitempty"`
	Bytes    int64   `json:"bytes,omitempty"`
	MBps     float64 `json:"mb_per_s,omitempty"`

	Impl   string  `json:"impl,omitempty"`
	Nodes  int     `json:"nodes,omitempty"`
	GFLOPS float64 `json:"gflops,omitempty"`

	// Matchscale fields. Only deterministic quantities belong here: SimMS is
	// virtual time, a pure function of the spec. The engine's scheduling
	// counters (windows/stalls/adverts) vary with host scheduling under the
	// asynchronous protocol and are excluded for the same reason host
	// wall-clock is — cached results must be byte-stable.
	Ranks    int     `json:"ranks,omitempty"`
	Messages int     `json:"messages,omitempty"`
	SimMS    float64 `json:"sim_ms,omitempty"`
}

// Result is the canonical serialized form of a finished job: the normalized
// spec it answers plus one point per grid cell, in grid order. MarshalResult
// is the only encoder, so equal jobs produce byte-identical documents.
type Result struct {
	Spec   JobSpec       `json:"spec"`
	Points []PointResult `json:"points"`
}

// MarshalResult encodes a result deterministically (indented JSON plus a
// trailing newline — friendly to curl and byte-stable for the cache).
func MarshalResult(spec JobSpec, points []PointResult) ([]byte, error) {
	data, err := json.MarshalIndent(Result{Spec: spec, Points: points}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: marshal result: %w", err)
	}
	return append(data, '\n'), nil
}

// Normalize validates a spec and returns its canonical form: system
// lowercased, workload defaulted, grids defaulted from the paper's sweeps,
// and strategy names rewritten to clmpi's canonical spelling (so
// "pipelined(04)" and "pipelined(4)" are the same job). The canonical form
// is what Hash digests and what the result document embeds.
func Normalize(spec JobSpec) (JobSpec, error) {
	n := spec
	n.System = strings.ToLower(strings.TrimSpace(n.System))
	var sys cluster.System
	if len(n.SystemSpec) > 0 {
		if n.System != "" {
			return JobSpec{}, fmt.Errorf("serve: job carries both system and system_spec (give one)")
		}
		var err error
		sys, err = cluster.DecodeSpec(n.SystemSpec)
		if err != nil {
			return JobSpec{}, fmt.Errorf("serve: %w", err)
		}
		compact, err := cluster.EncodeSpecCompact(sys)
		if err != nil {
			return JobSpec{}, fmt.Errorf("serve: %w", err)
		}
		if name, ok := cluster.PresetByCanonical(compact); ok {
			// The inline spec is a built-in preset; collapse to its name so
			// both spellings content-address one cache entry.
			n.System, n.SystemSpec = name, nil
		} else {
			n.SystemSpec = compact
		}
	} else {
		n.SystemSpec = nil
		var ok bool
		if sys, ok = cluster.Preset(n.System); !ok {
			return JobSpec{}, fmt.Errorf("serve: unknown system %q (presets: %s; or submit an inline system_spec)",
				spec.System, strings.Join(cluster.PresetNames(), ", "))
		}
	}
	if n.Workload == "" {
		n.Workload = "p2p"
	}
	if n.Workload != "matchscale" {
		if len(n.Ranks) > 0 || n.ParallelWorld != 0 {
			return JobSpec{}, fmt.Errorf("serve: %s job carries matchscale fields (ranks/parallel_world)", n.Workload)
		}
	}
	switch n.Workload {
	case "p2p":
		if len(n.Impls) > 0 || len(n.Nodes) > 0 || n.Size != "" || n.Iters != 0 {
			return JobSpec{}, fmt.Errorf("serve: p2p job carries himeno fields (impls/nodes/size/iters)")
		}
		if len(n.Strategies) == 0 {
			for _, im := range bench.Fig8Impls() {
				n.Strategies = append(n.Strategies, im.Name)
			}
		}
		canon := make([]string, len(n.Strategies))
		for i, name := range n.Strategies {
			st, block, err := clmpi.ParseStrategy(name)
			if err != nil {
				return JobSpec{}, fmt.Errorf("serve: %w", err)
			}
			if block > 0 {
				canon[i] = fmt.Sprintf("pipelined(%d)", block>>20)
			} else {
				canon[i] = st.String()
			}
		}
		n.Strategies = canon
		if len(n.Sizes) == 0 {
			n.Sizes = bench.Fig8Sizes()
		}
		for _, s := range n.Sizes {
			if s <= 0 || s > maxP2PBytes {
				return JobSpec{}, fmt.Errorf("serve: message size %d out of range (0, %d]", s, int64(maxP2PBytes))
			}
		}
	case "himeno":
		if len(n.Strategies) > 0 || len(n.Sizes) > 0 {
			return JobSpec{}, fmt.Errorf("serve: himeno job carries p2p fields (strategies/sizes)")
		}
		if len(n.Impls) == 0 {
			n.Impls = []string{"serial", "hand-optimized", "clMPI"}
		}
		canon := make([]string, len(n.Impls))
		for i, name := range n.Impls {
			im, err := himeno.ParseImpl(name)
			if err != nil {
				return JobSpec{}, fmt.Errorf("serve: %w", err)
			}
			canon[i] = im.String()
		}
		n.Impls = canon
		if len(n.Nodes) == 0 {
			n.Nodes = bench.Fig9Nodes(sys)
		}
		for _, nodes := range n.Nodes {
			if nodes <= 0 || nodes > 1024 {
				return JobSpec{}, fmt.Errorf("serve: node count %d out of range [1, 1024]", nodes)
			}
		}
		if n.Size == "" {
			n.Size = "XS"
		}
		if _, err := himeno.SizeByName(n.Size); err != nil {
			return JobSpec{}, fmt.Errorf("serve: %w", err)
		}
		if n.Iters == 0 {
			n.Iters = 2
		}
		if n.Iters < 0 || n.Iters > 64 {
			return JobSpec{}, fmt.Errorf("serve: iters %d out of range [1, 64]", n.Iters)
		}
	case "matchscale":
		if len(n.Strategies) > 0 || len(n.Sizes) > 0 || len(n.Impls) > 0 ||
			len(n.Nodes) > 0 || n.Size != "" || n.Iters != 0 {
			return JobSpec{}, fmt.Errorf("serve: matchscale job carries p2p/himeno fields")
		}
		if len(n.Ranks) == 0 {
			n.Ranks = []int{256, 1024, 4096}
		}
		minRanks := n.Ranks[0]
		for _, r := range n.Ranks {
			if r < 2 || r > 100000 {
				return JobSpec{}, fmt.Errorf("serve: rank count %d out of range [2, 100000]", r)
			}
			minRanks = min(minRanks, r)
		}
		if n.ParallelWorld < 0 || n.ParallelWorld > 64 {
			return JobSpec{}, fmt.Errorf("serve: parallel_world %d out of range [0, 64]", n.ParallelWorld)
		}
		if n.ParallelWorld > minRanks {
			// Every partition needs at least one rank of every point.
			return JobSpec{}, fmt.Errorf("serve: parallel_world %d exceeds the smallest rank count %d", n.ParallelWorld, minRanks)
		}
		if n.ParallelWorld == 1 {
			// One partition is the serial engine; canonicalize so the two
			// spellings content-address the same cache entry.
			n.ParallelWorld = 0
		}
	default:
		return JobSpec{}, fmt.Errorf("serve: unknown workload %q (want p2p, himeno, or matchscale)", spec.Workload)
	}
	if pts := n.NumPoints(); pts == 0 || pts > maxJobPoints {
		return JobSpec{}, fmt.Errorf("serve: job expands to %d points (want 1..%d)", pts, maxJobPoints)
	}
	return n, nil
}

// NumPoints reports how many grid points a normalized spec expands to.
func (s JobSpec) NumPoints() int {
	switch s.Workload {
	case "himeno":
		return len(s.Impls) * len(s.Nodes)
	case "matchscale":
		return len(s.Ranks)
	}
	return len(s.Strategies) * len(s.Sizes)
}

// slotWeight reports how many worker-pool slots one point of this spec
// occupies while running: ParallelWorld for a partitioned matchscale point,
// else one.
func (s JobSpec) slotWeight() int {
	if s.ParallelWorld > 1 {
		return s.ParallelWorld
	}
	return 1
}

// System resolves a normalized spec's system description: the inline spec
// when present, else the named preset.
func (s JobSpec) ResolveSystem() (cluster.System, error) {
	if len(s.SystemSpec) > 0 {
		return cluster.DecodeSpec(s.SystemSpec)
	}
	if sys, ok := cluster.Preset(s.System); ok {
		return sys, nil
	}
	return cluster.System{}, fmt.Errorf("serve: unknown system %q", s.System)
}

// RunPoint simulates grid point i of a normalized spec. The grid is flat,
// first axis outer (strategies or impls), second axis inner (sizes or
// nodes) — the row order a serial nested loop would produce.
func RunPoint(spec JobSpec, i int) (PointResult, error) {
	return RunPointObs(spec, i, nil)
}

// RunPointObs is RunPoint with a host-time observability aggregator: a
// partitioned matchscale point attaches a flight recorder and stall
// attribution to its engine. sm observes host clocks only, so the
// PointResult — and therefore the cached result bytes — are identical with
// sm nil or not.
func RunPointObs(spec JobSpec, i int, sm *obs.Sim) (PointResult, error) {
	sys, err := spec.ResolveSystem()
	if err != nil {
		return PointResult{}, err
	}
	if spec.Workload == "matchscale" {
		ranks := spec.Ranks[i]
		pw := spec.ParallelWorld
		pt, err := bench.MatchScalePointObs(sys, ranks, 8, 25, 1, pw, pw, sm)
		if err != nil {
			return PointResult{}, fmt.Errorf("serve: matchscale ranks=%d: %w", ranks, err)
		}
		return PointResult{Ranks: ranks, Messages: pt.Messages, SimMS: pt.SimMS}, nil
	}
	if spec.Workload == "himeno" {
		implName, nodes := spec.Impls[i/len(spec.Nodes)], spec.Nodes[i%len(spec.Nodes)]
		impl, err := himeno.ParseImpl(implName)
		if err != nil {
			return PointResult{}, err
		}
		size, err := himeno.SizeByName(spec.Size)
		if err != nil {
			return PointResult{}, err
		}
		res, err := himeno.Run(himeno.Config{
			System: sys, Nodes: nodes, Size: size, Iters: spec.Iters,
			Impl: impl, Mode: himeno.OfficialInit,
		})
		if err != nil {
			return PointResult{}, fmt.Errorf("serve: himeno %s n=%d: %w", implName, nodes, err)
		}
		return PointResult{Impl: implName, Nodes: nodes, GFLOPS: res.GFLOPS}, nil
	}
	stName, size := spec.Strategies[i/len(spec.Sizes)], spec.Sizes[i%len(spec.Sizes)]
	st, block, err := clmpi.ParseStrategy(stName)
	if err != nil {
		return PointResult{}, err
	}
	bw, err := bench.MeasureP2P(sys, st, block, size)
	if err != nil {
		return PointResult{}, fmt.Errorf("serve: p2p %s msg=%d: %w", stName, size, err)
	}
	return PointResult{Strategy: stName, Bytes: size, MBps: bw / 1e6}, nil
}

// RunJob runs one job in-process through the default sweep pool and returns
// the normalized spec, its canonical hash, and the serialized result — the
// same bytes the daemon would serve (and cache) for the same spec. Tests use
// it as the oracle for served results; tools can use it to warm a cache
// directory offline.
func RunJob(spec JobSpec) (JobSpec, string, []byte, error) {
	norm, err := Normalize(spec)
	if err != nil {
		return JobSpec{}, "", nil, err
	}
	hash := Hash(norm)
	points, err := sweep.Map(norm.NumPoints(), func(i int) (PointResult, error) {
		return RunPoint(norm, i)
	})
	if err != nil {
		return norm, hash, nil, err
	}
	data, err := MarshalResult(norm, points)
	if err != nil {
		return norm, hash, nil, err
	}
	return norm, hash, data, nil
}

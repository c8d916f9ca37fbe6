package serve

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/clmpi"
	"repro/internal/cluster"
	"repro/internal/himeno"
)

// unrunnableBodies are jobs with a grid point its run package rejects: a
// himeno node count beyond the system (Cichlid has 4 nodes), a p2p job on
// an inline one-node system, and a partitioned matchscale job on an inline
// system with a shared backplane. Decode must refuse each, because a point
// that fails its run's own check would otherwise panic on a sweep
// goroutine.
func unrunnableBodies(tb testing.TB) []string {
	tb.Helper()
	oneNode := cluster.Cichlid()
	oneNode.MaxNodes = 1
	backplane := cluster.RICC()
	backplane.NIC.Backplane = 1e9
	var specs [2][]byte
	for i, sys := range []cluster.System{oneNode, backplane} {
		var err error
		if specs[i], err = cluster.EncodeSpecCompact(sys); err != nil {
			tb.Fatal(err)
		}
	}
	return []string{
		`{"system":"cichlid","workload":"himeno","size":"S","nodes":[8]}`,
		fmt.Sprintf(`{"system_spec":%s,"sizes":[65536]}`, specs[0]),
		fmt.Sprintf(`{"system_spec":%s,"workload":"matchscale","ranks":[8],"parallel_world":2}`, specs[1]),
	}
}

// FuzzDecode: Decode never panics, and for any body it accepts the
// normalized spec is a fixed point of Normalize with an unchanged Hash, and
// every grid point passes its run package's own admission check. Run with
//
//	go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/serve/
func FuzzDecode(f *testing.F) {
	for _, body := range append([]string{
		`{"system":"cichlid"}`,
		`{"system":"RICC","workload":"p2p","strategies":["pinned","pipelined(262144)"],"sizes":[65536,1048576]}`,
		`{"system":"hopper","workload":"himeno","impls":["serial","clmpi"],"nodes":[1,2],"size":"S","iters":3}`,
		`{"system":"ricc","workload":"matchscale","ranks":[64,128],"parallel_world":2}`,
	}, unrunnableBodies(f)...) {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		norm, h, err := Decode(body)
		if err != nil {
			return
		}
		again, err := Normalize(norm)
		if err != nil {
			t.Fatalf("normalizing a normalized spec: %v\n%+v", err, norm)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", norm, again)
		}
		if h2 := Hash(again); h2 != h {
			t.Fatalf("hash changed on renormalizing: %s != %s", h2, h)
		}
		if err := runChecks(norm); err != nil {
			t.Fatalf("accepted a job its run package rejects: %v\n%+v", err, norm)
		}
	})
}

// runChecks asks each run package's own check about every grid point of a
// normalized spec, building the point's configuration as the run does.
func runChecks(s JobSpec) error {
	sys, err := s.ResolveSystem()
	if err != nil {
		return err
	}
	switch s.Workload {
	case "himeno":
		size, err := himeno.SizeByName(s.Size)
		if err != nil {
			return err
		}
		for _, name := range s.Impls {
			impl, err := himeno.ParseImpl(name)
			if err != nil {
				return err
			}
			for _, nodes := range s.Nodes {
				cfg := himeno.Config{System: sys, Nodes: nodes, Size: size, Iters: s.Iters, Impl: impl}
				if err := cfg.Check(); err != nil {
					return err
				}
			}
		}
	case "matchscale":
		return bench.CheckMatchScale(sys, s.Ranks, matchOutstanding, matchWildPct, matchRounds, s.ParallelWorld)
	default:
		for _, size := range s.Sizes {
			if err := clmpi.CheckP2P(sys, size); err != nil {
				return err
			}
		}
	}
	return nil
}

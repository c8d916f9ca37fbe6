package serve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestHashFieldOrderInvariant: the content address must not depend on how
// the client ordered or formatted its JSON — only on what job it asked for.
func TestHashFieldOrderInvariant(t *testing.T) {
	a := []byte(`{"system":"cichlid","workload":"p2p","strategies":["pinned","mapped"],"sizes":[65536,1048576]}`)
	b := []byte(`{
		"sizes":    [65536, 1048576],
		"strategies": ["pinned", "mapped"],
		"workload": "p2p",
		"system":   "cichlid"
	}`)
	_, ha, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	_, hb, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("field order changed the hash: %s vs %s", ha, hb)
	}
}

// TestHashCanonicalization: semantic aliases — system case, strategy
// spellings, and explicitly spelling out the defaults — must collapse to one
// content address, while genuinely different jobs (reordered grids, other
// sizes) must not.
func TestHashCanonicalization(t *testing.T) {
	hash := func(spec JobSpec) string {
		t.Helper()
		norm, err := Normalize(spec)
		if err != nil {
			t.Fatal(err)
		}
		return Hash(norm)
	}
	base := hash(JobSpec{System: "cichlid", Strategies: []string{"pipelined(4)"}, Sizes: []int64{1 << 20}})
	if got := hash(JobSpec{System: "CICHLID", Workload: "p2p", Strategies: []string{"pipelined(04)"}, Sizes: []int64{1 << 20}}); got != base {
		t.Errorf("aliased spec hashed differently: %s vs %s", got, base)
	}
	if got := hash(JobSpec{System: "cichlid", Strategies: []string{"pinned"}, Sizes: []int64{1 << 20}}); got == base {
		t.Errorf("different strategy hashed equal")
	}
	if got := hash(JobSpec{System: "ricc", Strategies: []string{"pipelined(4)"}, Sizes: []int64{1 << 20}}); got == base {
		t.Errorf("different system hashed equal")
	}

	// Grid order is semantic (it orders the result rows): reordering must
	// change the address.
	fwd := hash(JobSpec{System: "cichlid", Sizes: []int64{1 << 16, 1 << 20}, Strategies: []string{"pinned"}})
	rev := hash(JobSpec{System: "cichlid", Sizes: []int64{1 << 20, 1 << 16}, Strategies: []string{"pinned"}})
	if fwd == rev {
		t.Errorf("reordered size grid hashed equal")
	}

	// The default grids and their explicit spelling are the same job.
	full := hash(JobSpec{System: "cichlid"})
	explicit := hash(JobSpec{
		System:     "cichlid",
		Workload:   "p2p",
		Strategies: []string{"pinned", "mapped", "pipelined(1)", "pipelined(4)"},
		Sizes:      []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20},
	})
	if full != explicit {
		t.Errorf("defaulted and explicit Fig. 8 specs hashed differently")
	}
}

// TestDecodeRejectsUnknownFields: a misspelled field must be an error, not a
// silent default that poisons the content address.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, _, err := Decode([]byte(`{"system":"cichlid","strategys":["pinned"]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestDecodeRejectsTrailingData: a job body is one JSON document. Junk or
// a second document after it must not get a hash; trailing whitespace may.
func TestDecodeRejectsTrailingData(t *testing.T) {
	body := `{"system":"cichlid","strategies":["pinned"]}`
	for _, tail := range []string{"trailing junk", `{"system":"ricc"}`, "]"} {
		if _, h, err := Decode([]byte(body + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("tail %q: want a trailing-data error, got hash %q, err %v", tail, h, err)
		}
	}
	if _, _, err := Decode([]byte(body + " \n\t\r\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestNormalizeValidation exercises the rejection paths.
func TestNormalizeValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown system", JobSpec{System: "bluegene"}, "unknown system"},
		{"unknown workload", JobSpec{System: "cichlid", Workload: "matmul"}, "unknown workload"},
		{"unknown strategy", JobSpec{System: "cichlid", Strategies: []string{"teleport"}}, "unknown strategy"},
		{"bad size", JobSpec{System: "cichlid", Sizes: []int64{0}}, "out of range"},
		{"huge size", JobSpec{System: "cichlid", Sizes: []int64{2 << 30}}, "out of range"},
		{"mixed p2p", JobSpec{System: "cichlid", Workload: "p2p", Nodes: []int{2}}, "himeno fields"},
		{"mixed himeno", JobSpec{System: "cichlid", Workload: "himeno", Sizes: []int64{1}}, "p2p fields"},
		{"bad impl", JobSpec{System: "cichlid", Workload: "himeno", Impls: []string{"fortran"}}, "unknown implementation"},
		{"bad nodes", JobSpec{System: "cichlid", Workload: "himeno", Nodes: []int{0}}, "out of range"},
		{"nodes above size", JobSpec{System: "ricc", Workload: "himeno", Nodes: []int{16, 32}}, "out of range [1, 31] for size XS"},
		{"bad himeno size", JobSpec{System: "cichlid", Workload: "himeno", Size: "XXL"}, "unknown size"},
		{"bad iters", JobSpec{System: "cichlid", Workload: "himeno", Iters: 65}, "out of range"},
		{"parallel_world above ranks", JobSpec{System: "cichlid", Workload: "matchscale", Ranks: []int{8, 2}, ParallelWorld: 3}, "2 ranks cannot span 3 partitions"},
	}
	for _, tc := range cases {
		if _, err := Normalize(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestNormalizeHimenoDefaults: the himeno defaults fill in and canonicalize.
func TestNormalizeHimenoDefaults(t *testing.T) {
	norm, err := Normalize(JobSpec{System: "ricc", Workload: "himeno", Impls: []string{"clmpi", "handopt"}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(norm.Impls, ","), "clMPI,hand-optimized"; got != want {
		t.Errorf("impls = %q, want %q", got, want)
	}
	if len(norm.Nodes) == 0 || norm.Size != "XS" || norm.Iters != 2 {
		t.Errorf("defaults not applied: %+v", norm)
	}
	if norm.NumPoints() != 2*len(norm.Nodes) {
		t.Errorf("NumPoints = %d", norm.NumPoints())
	}
}

// TestDefaultRICCHimenoJobRuns: the default node grid holds only counts
// the default size can split, so a job that normalizes also runs.
func TestDefaultRICCHimenoJobRuns(t *testing.T) {
	norm, _, _, err := RunJob(JobSpec{System: "ricc", Workload: "himeno", Impls: []string{"clmpi"}, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(norm.Nodes), "[1 2 4 8 16]"; got != want {
		t.Errorf("default XS nodes on RICC = %s, want %s", got, want)
	}
}

// TestHashKeyedByModelVersion: the content address covers the model
// version, so a result simulated under another version never answers for
// the current one — in memory or in a -cache-dir written before a bump.
func TestHashKeyedByModelVersion(t *testing.T) {
	norm, err := Normalize(JobSpec{System: "cichlid"})
	if err != nil {
		t.Fatal(err)
	}
	if Hash(norm) != hashAt(cluster.ModelVersion, norm) {
		t.Fatal("Hash is not keyed by cluster.ModelVersion")
	}
	if hashAt(cluster.ModelVersion-1, norm) == Hash(norm) {
		t.Fatal("the previous model version hashes to the same content address")
	}
}

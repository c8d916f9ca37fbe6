// Package clitest holds the bad-flag table of the seven figure tools and
// the harness that drives it. Each tool's main_test.go hands its TestMain to
// Main and runs its own rows with BadFlags, so one table covers every tool
// and each tool's test re-runs its own test binary as the tool.
package clitest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// mainEnv, set to "1", makes a test binary run the tool's main instead of
// its tests.
const mainEnv = "CLMPI_TOOL_MAIN"

// Main is a tool's TestMain: with CLMPI_TOOL_MAIN=1 set the process runs
// main with its arguments and exits 0 if main returns; otherwise it runs
// the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cases lists each tool's bad flag values: zero, negative and too-large
// numbers, unknown names, and node counts beyond the system. oneNode names a
// valid spec file of a one-node system, on which no tool can place its
// two-node transfers or runs; backplane one of a system with a shared
// backplane, which no partitioned world can split.
func cases(oneNode, backplane string) map[string][][]string {
	return map[string][][]string{
		"clmpi-repro": {
			{"-quick", "-systems", "nope"},
			{"-quick", "-systems", "cichlid,"},
			{"-quick", "-ranks", "1"},
			{"-quick", "-ranks", "-5"},
			{"-quick", "-parallel-world", "-2"},
			{"-quick", "-ranks", "8", "-parallel-world", "16"},
			{"-quick", "-parallel-world", "100"}, // the default 64-rank point
			{"-quick", "-parallel", "-1"},
			{"-quick", "-systems", "cichlid," + oneNode},
		},
		"clmpi-bw": {
			{"-system", "nope"},
			{"-system", oneNode},
			{"-ranks", "1"},
			{"-ranks", "8,x"},
			{"-ranks", "8", "-outstanding", "0"},
			{"-ranks", "8", "-parallel-world", "-2"},
			{"-ranks", "8,2", "-parallel-world", "4"},
			{"-ranks", "8", "-wild", "101"},
			{"-system", backplane, "-ranks", "8", "-parallel-world", "2"},
			{"-wild", "-1"},
			{"-strategy", "bogus"},
			{"-msg", "0", "-metrics"},
			{"-parallel", "-1"},
		},
		"clmpi-himeno": {
			{"-system", "nope"},
			{"-system", oneNode},
			{"-size", "XXL"},
			{"-iters", "0"},
			{"-iters", "-1"},
			{"-trace-nodes", "99"},
			{"-trace-nodes", "0", "-metrics"},
			{"-size", "S", "-trace-nodes", "8", "-metrics"},
			{"-parallel", "-1"},
		},
		"clmpi-nanopowder": {
			{"-system", "nope"},
			{"-steps", "0"},
			{"-steps", "-2"},
			{"-bins", "0"},
			{"-bins", "-5"},
		},
		"clmpi-trace": {
			{"-system", "nope"},
			{"-system", oneNode},
			{"-size", "XXL"},
			{"-iters", "0"},
			{"-iters", "-1"},
		},
		"clmpi-verify": {
			{"-size", "XXL"},
			{"-iters", "0"},
			{"-iters", "-3"},
		},
		"clmpi-ablate": {
			{"-only", "nope"},
			{"-system", "nope"},
			{"-system", oneNode},
			{"-parallel", "-1"},
		},
	}
}

// BadFlags re-runs the test binary as tool, which must hand its TestMain to
// Main, with each of the tool's bad flag values. Each must be rejected
// before any work starts — nothing on stdout, not even a table header —
// with exit status 2 and one "<tool>: " line on stderr.
func BadFlags(t *testing.T, tool string) {
	t.Helper()
	dir := t.TempDir()
	oneNode := cluster.Cichlid()
	oneNode.MaxNodes = 1
	backplane := cluster.RICC()
	backplane.NIC.Backplane = 1e9
	oneNodeFile, backplaneFile := filepath.Join(dir, "one-node.json"), filepath.Join(dir, "backplane.json")
	for file, sys := range map[string]cluster.System{oneNodeFile: oneNode, backplaneFile: backplane} {
		spec, err := cluster.EncodeSpec(sys)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, spec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rows := cases(oneNodeFile, backplaneFile)[tool]
	if len(rows) == 0 {
		t.Fatalf("no bad-flag cases for %s", tool)
	}
	for _, args := range rows {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), mainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s %v: exit = %v, want status 2", tool, args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %v: work started before the flag was rejected:\n%.300s", tool, args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, tool+": ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s %v: stderr = %q, want one %s: line", tool, args, msg, tool)
		}
	}
}

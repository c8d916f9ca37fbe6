package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as clmpi-repro itself: with
// CLMPI_REPRO_MAIN=1 set, the process runs main with its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CLMPI_REPRO_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitBeforeWork: a bad flag value is rejected before any work
// starts — nothing on stdout, not even Table I — with exit status 2 and a
// one-line message on stderr.
func TestBadFlagsExitBeforeWork(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-systems", "nope"},
		{"-quick", "-systems", "cichlid,"},
		{"-quick", "-ranks", "1"},
		{"-quick", "-ranks", "-5"},
		{"-quick", "-parallel-world", "-2"},
		{"-quick", "-ranks", "8", "-parallel-world", "16"},
		{"-quick", "-parallel-world", "100"}, // the default 64-rank point
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "CLMPI_REPRO_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit = %v, want status 2", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: work started before the flag was rejected:\n%.300s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "clmpi-repro: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one clmpi-repro: line", args, msg)
		}
	}
}

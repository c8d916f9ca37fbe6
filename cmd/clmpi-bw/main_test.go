package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as clmpi-bw itself: with
// CLMPI_BW_MAIN=1 set, the process runs main with its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CLMPI_BW_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitBeforeWork: a bad flag value is rejected before any work
// starts — nothing on stdout, not even the Fig. 8 sweep — with exit status
// 2 and a one-line message on stderr.
func TestBadFlagsExitBeforeWork(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "nope"},
		{"-ranks", "1"},
		{"-ranks", "8,x"},
		{"-ranks", "8", "-outstanding", "0"},
		{"-ranks", "8", "-parallel-world", "-2"},
		{"-ranks", "8,2", "-parallel-world", "4"},
		{"-ranks", "8", "-wild", "101"},
		{"-wild", "-1"},
		{"-strategy", "bogus"},
		{"-msg", "0", "-metrics"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "CLMPI_BW_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: exit = %v, want status 2", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: work started before the flag was rejected:\n%s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.HasPrefix(msg, "clmpi-bw: ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr = %q, want one clmpi-bw: line", args, msg)
		}
	}
}

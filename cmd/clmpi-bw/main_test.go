package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

// TestMain lets a test re-run this binary as clmpi-bw itself.
func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagsExitBeforeWork: every bad flag value in clitest's table for
// clmpi-bw exits 2 with empty stdout and one "clmpi-bw: " stderr line.
func TestBadFlagsExitBeforeWork(t *testing.T) { clitest.BadFlags(t, "clmpi-bw") }

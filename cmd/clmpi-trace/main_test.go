package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

// TestMain lets a test re-run this binary as clmpi-trace itself.
func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadFlagsExitBeforeWork: every bad flag value in clitest's table for
// clmpi-trace exits 2 with empty stdout and one "clmpi-trace: " stderr line.
func TestBadFlagsExitBeforeWork(t *testing.T) { clitest.BadFlags(t, "clmpi-trace") }

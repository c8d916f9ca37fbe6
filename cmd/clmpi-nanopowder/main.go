// Command clmpi-nanopowder regenerates Figure 10 of the clMPI paper: the
// per-step execution time of the nanopowder growth simulation on RICC for
// the baseline (MPI_Isend + MPI_Recv + clEnqueueWriteBuffer) and clMPI
// (MPI_Isend with MPI_CL_MEM + clEnqueueRecvBuffer) implementations, over
// the node counts that divide the 40 reactor cells.
//
// Usage:
//
//	clmpi-nanopowder
//	clmpi-nanopowder -steps 5 -bins 128
//	clmpi-nanopowder -system hopper
//	clmpi-nanopowder -system mycluster.json
package main

import (
	"flag"
	"fmt"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/nanopowder"
)

func main() {
	system := flag.String("system", "ricc", "system to simulate: a preset name or a spec file path")
	steps := flag.Int("steps", 3, "simulation steps to time")
	bins := flag.Int("bins", 256, "particle size bins per cell")
	flag.Parse()
	// Every run is configured and checked before any work starts: a bad
	// flag exits 2.
	tool := cli.New("clmpi-nanopowder")
	sys, err := cluster.Resolve(*system)
	tool.BadFlag(err)
	params := nanopowder.DefaultParams()
	params.Steps = *steps
	params.Bins = *bins
	for _, cfg := range bench.Fig10Runs(sys, params) {
		tool.BadFlag(cfg.Check())
	}
	fmt.Printf("Figure 10: nanopowder growth simulation on %s (%d cells, %d bins, %.0f MB coefficients/step)\n\n",
		sys.Name, params.Cells, params.Bins, float64(params.TotalCoeffBytes())/1e6)
	points, err := bench.Fig10On(sys, params)
	tool.Check(err)
	headers, rows := bench.Fig10Table(points)
	fmt.Print(bench.FormatTable(headers, rows))
}

// Command clmpi-verify runs the reproduction's end-to-end correctness
// checks and prints a report: every distributed implementation of both
// evaluation applications is compared bit-for-bit against its host-only
// reference. This is the evidence that the performance figures measure real
// computations, not hollow cost models.
//
// Usage:
//
//	clmpi-verify
//	clmpi-verify -size S -iters 2
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/himeno"
	"repro/internal/nanopowder"
)

func main() {
	sizeName := flag.String("size", "XS", "Himeno size for verification runs")
	iters := flag.Int("iters", 4, "Himeno iterations")
	flag.Parse()
	tool := cli.New("clmpi-verify")
	size, err := himeno.SizeByName(*sizeName)
	tool.BadFlag(err)
	v := bench.Verification{
		Himeno:      himeno.Config{System: cluster.Cichlid(), Size: size, Iters: *iters, Mode: himeno.ScrambledInit},
		HimenoNodes: []int{1, 2, 4},
		Powder: nanopowder.Config{
			System: cluster.RICC(), Params: nanopowder.Params{Cells: 8, Bins: 96, Steps: 3, SubSteps: 50},
		},
		PowderNodes: []int{1, 2, 4, 8},
	}
	tool.BadFlag(v.Check())

	himenoVerdicts, powderVerdicts, gosa := v.Run()
	failures := 0
	table := func(column string, verdicts []bench.Verdict) {
		var rows [][]string
		for _, vd := range verdicts {
			if !vd.OK() {
				failures++
			}
			rows = append(rows, []string{vd.Impl, fmt.Sprintf("%d", vd.Nodes), vd.String()})
		}
		fmt.Print(bench.FormatTable([]string{"implementation", "nodes", column}, rows))
	}
	fmt.Printf("Himeno %s, %d iterations — final grids vs host reference (bitwise):\n\n", size.Name, *iters)
	table("grid", himenoVerdicts)
	fmt.Printf("\nreference gosa: %.9e\n\n", gosa)
	fmt.Println("Nanopowder — final populations vs host reference (bitwise):")
	fmt.Println()
	table("state", powderVerdicts)

	fmt.Println()
	if failures > 0 {
		fmt.Printf("FAILED: %d verification(s) did not match\n", failures)
		os.Exit(1)
	}
	fmt.Println("all verifications passed")
}

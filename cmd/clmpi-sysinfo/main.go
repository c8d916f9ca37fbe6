// Command clmpi-sysinfo renders Table I of the clMPI paper — the
// specifications of the simulated evaluation systems, including the
// cost-model parameters this reproduction derives from them — for any set
// of systems: built-in presets by name or spec files by path.
//
// With -o dir it instead exports every built-in preset as a canonical
// clmpi-system/v1 spec file, one per preset. The exported files are
// byte-identical to the specs embedded in the binary, so they round-trip:
// loading one back reproduces the preset bit for bit (the CI spec gate
// relies on this).
//
// Usage:
//
//	clmpi-sysinfo                                 # Table I, Cichlid + RICC
//	clmpi-sysinfo -system cichlid,hopper
//	clmpi-sysinfo -system mycluster.json
//	clmpi-sysinfo -o examples/systems             # export all presets
//
// The partitioned engine's lookahead is each system's nic.wire_latency, as
// printed in every exported spec.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cluster"
)

func main() {
	systemsFlag := flag.String("system", "cichlid,ricc", "comma-separated systems to describe: preset names or spec file paths")
	outDir := flag.String("o", "", "export every built-in preset as a canonical spec file into this directory instead of printing Table I")
	flag.Parse()

	tool := cli.New("clmpi-sysinfo")
	if *outDir != "" {
		tool.Check(exportPresets(*outDir))
		return
	}

	var systems []cluster.System
	for _, arg := range strings.Split(*systemsFlag, ",") {
		sys, err := cluster.Resolve(strings.TrimSpace(arg))
		tool.BadFlag(err)
		systems = append(systems, sys)
	}
	fmt.Println("Table I: system specifications (simulated)")
	fmt.Println()
	fmt.Print(bench.SpecTable(systems...))
}

// exportPresets writes every built-in preset to dir as <name>.json in the
// canonical encoding (the same bytes that are embedded in the binary).
func exportPresets(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range cluster.PresetNames() {
		sys, err := cluster.Resolve(name)
		if err != nil {
			return err
		}
		data, err := cluster.EncodeSpec(sys)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s)\n", path, sys.Name)
	}
	return nil
}

// Command clmpi-calib turns measured microbenchmark numbers into a system
// spec: it fits the cost-model parameters (sustained PCIe and network
// bandwidths, setup costs, DMA and wire latencies, message overhead) from a
// measurements JSON file and writes the fitted system as a canonical
// clmpi-system/v1 spec file, ready for every -system flag in this repo.
//
// The identity fields the fitter cannot observe (names, models, node count,
// memory sizes, software versions) come from a base system: a preset name
// or an existing spec file.
//
// With -synth it runs the other direction: it synthesizes the exact
// measurement set the fitter expects from a system's cost model, as a
// template to fill in with real numbers (and as a self-check — fitting a
// synthesized set recovers the system it came from).
//
// Usage:
//
//	clmpi-calib -synth -base cichlid -o measurements.json   # template
//	clmpi-calib -base cichlid -m measured.json -o lab.json  # fit
//	clmpi-calib -base lab.json -m measured.json             # spec to stdout
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/cluster/calib"
)

func main() {
	base := flag.String("base", "", "base system for identity fields: a preset name or a spec file path (required)")
	measured := flag.String("m", "", "measurements JSON to fit (required unless -synth)")
	synth := flag.Bool("synth", false, "synthesize the measurement set from the base system's cost model instead of fitting")
	out := flag.String("o", "", "output file (default: stdout)")
	flag.Parse()

	tool := cli.New("clmpi-calib")
	if *base == "" {
		tool.BadFlag(errors.New("-base is required (a preset name or a spec file path)"))
	}
	sys, err := cluster.Resolve(*base)
	tool.BadFlag(err)

	var data []byte
	if *synth {
		m := calib.Synthesize(sys)
		data, err = json.MarshalIndent(m, "", "  ")
		tool.Check(err)
		data = append(data, '\n')
	} else {
		if *measured == "" {
			tool.BadFlag(errors.New("-m measurements.json is required (or pass -synth to generate a template)"))
		}
		raw, err := os.ReadFile(*measured)
		tool.BadFlag(err)
		var m calib.Measurements
		if err := json.Unmarshal(raw, &m); err != nil {
			tool.BadFlag(fmt.Errorf("%s: %w", *measured, err))
		}
		fitted, err := calib.Fit(sys, m)
		tool.Check(err)
		data, err = cluster.EncodeSpec(fitted)
		tool.Check(err)
	}

	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	tool.Check(os.WriteFile(*out, data, 0o644))
	what := "spec"
	if *synth {
		what = "measurement template"
	}
	fmt.Printf("wrote %s %s (base %s)\n", what, *out, sys.Name)
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSmoke runs one tiny-size measurement and returns its result, after a
// round trip through the result line's JSON, and its summary.
func runSmoke(t *testing.T, workload string, traced bool) (result, string) {
	t.Helper()
	res, sum, err := measure(runConfig{workload: workload, seed: 3, traced: traced, smoke: true, store: t.TempDir()})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("%s traced=%v: result line: %v\n%s", workload, traced, err, line)
	}
	return back, sum
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
			t.Errorf("metric %s = %+v", d.Name, m)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range []string{"paper", "matchscale", "serve"} {
		t.Run(w, func(t *testing.T) {
			res, out := runSmoke(t, w, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = 0; end-to-end metrics must never be 0", d.Name)
				}
			}
			if !strings.Contains(out, `# host {"cores":`) {
				t.Errorf("no host fingerprint in\n%s", out)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range []string{"paper", "matchscale", "serve"} {
		t.Run(w, func(t *testing.T) {
			res, out := runSmoke(t, w, true)
			if !res.Correct {
				t.Fatalf("incorrect traced run\n%s", out)
			}
			checkMetrics(t, res, perLayer)
			if res.Metrics["cpu.samples"].Value > 0 {
				var sum float64
				for _, l := range layers {
					sum += res.Metrics["cpu."+l].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("layer shares sum to %v, want 1", sum)
				}
			}
			if res.Metrics["model.vt_digest"].Value == 0 {
				t.Error("no virtual-time digest")
			}
			// Each workload fills its own layer's metrics.
			own := map[string]string{"paper": "himeno.run_ms", "matchscale": "sim.run_s", "serve": "serve.decode_us"}[w]
			if res.Metrics[own].Value <= 0 {
				t.Errorf("%s = 0 on its own workload", own)
			}
		})
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q; want a non-zero exit and no result", code, out.String())
	}
	if code := run([]string{"--workload", "serve", "--trace", "2"}, &out, &errOut); code == 0 {
		t.Error("--trace 2 accepted")
	}
}

func TestPassCountIsFixed(t *testing.T) {
	if got := passCount("paper", 30, false); got != 25 {
		t.Errorf("paper at 30 s: %d passes, want 25", got)
	}
	if got := passCount("matchscale", 30, false); got != 10 {
		t.Errorf("matchscale at 30 s: %d passes, want 10", got)
	}
	if got := passCount("serve", 0, false); got != 1 {
		t.Errorf("serve at 0 s: %d passes, want 1", got)
	}
	if got := passCount("serve", 0, true); got != 2 {
		t.Errorf("traced serve at 0 s: %d passes, want 2 (one untraced, one traced)", got)
	}
}

func TestStoreDetectsDrift(t *testing.T) {
	dir := t.TempDir()
	model := map[string]float64{"serial_sim_ms": 1.5}
	for i := 0; i < 2; i++ {
		if msg, err := checkStore(dir, "k", "aa", model); err != nil || msg != "" {
			t.Fatalf("run %d: %q, %v", i, msg, err)
		}
	}
	if msg, _ := checkStore(dir, "k", "bb", model); msg == "" {
		t.Error("a changed digest went unnoticed")
	}
	if msg, _ := checkStore(dir, "k", "aa", map[string]float64{"serial_sim_ms": 1.25}); msg == "" {
		t.Error("a changed model value went unnoticed")
	}
	if _, err := os.Stat(filepath.Join(dir, "k.json")); err != nil {
		t.Error(err)
	}
}

func TestDigestNumberIsExact(t *testing.T) {
	d := vtDigest("x")
	n := digestNumber(d)
	if n <= 0 || n >= 1<<48 || n != math.Trunc(n) {
		t.Errorf("digestNumber(%s) = %v", d, n)
	}
	if digestNumber("zz") != 0 {
		t.Error("digestNumber accepted a non-hex digest")
	}
}

// TestBenchmarkJSONMatches keeps the checked-in BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1, true); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
}

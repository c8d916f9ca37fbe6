package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// perLayer are the metrics of a traced run, in BENCHMARK.json order. Every
// workload reports all of them; a layer the workload does not exercise
// reads 0. README.md says what each measures and what it should move.
var perLayer = []metricDef{
	// CPU-profile sample shares by layer and by runtime activity.
	{"cpu.sim", "ratio", "lower"},
	{"cpu.mpi", "ratio", "lower"},
	{"cpu.cl", "ratio", "lower"},
	{"cpu.clmpi", "ratio", "lower"},
	{"cpu.xfer", "ratio", "lower"},
	{"cpu.cluster", "ratio", "lower"},
	{"cpu.app", "ratio", "lower"},
	{"cpu.serve", "ratio", "lower"},
	{"cpu.sweep", "ratio", "lower"},
	{"cpu.trace", "ratio", "lower"},
	{"cpu.obs", "ratio", "lower"},
	{"cpu.bytepool", "ratio", "lower"},
	{"cpu.norepro", "ratio", "lower"},
	{"cpu.samples", "count", "higher"},
	{"cpu.rt_sched", "ratio", "lower"},
	{"cpu.rt_stack", "ratio", "lower"},
	{"cpu.rt_malloc", "ratio", "lower"},
	{"cpu.rt_gc", "ratio", "lower"},
	// Engine size and Go runtime pressure.
	{"sim.procs", "count", "lower"},
	{"sim.timers", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"rt.goroutines_peak", "count", "lower"},
	{"rt.stack_mb", "MB", "lower"},
	{"rt.sched_latency_p50_us", "us", "lower"},
	{"rt.sched_latency_p99_us", "us", "lower"},
	// Large-world simulation phases and scheduling counters.
	{"cluster.new_s", "s", "lower"},
	{"mpi.launch_s", "s", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.part_setup_s", "s", "lower"},
	{"sim.part_run_s", "s", "lower"},
	{"sim.part_windows", "count", "lower"},
	{"sim.part_stalls", "count", "lower"},
	{"sim.part_adverts", "count", "lower"},
	{"mpi.messages", "count", "higher"},
	{"mpi.peak_posted", "count", "lower"},
	{"mpi.peak_unexpected", "count", "lower"},
	// Per-call cost of the figure cells.
	{"clmpi.p2p_ms", "ms", "lower"},
	{"clmpi.p2p_calls", "count", "higher"},
	{"himeno.run_ms", "ms", "lower"},
	{"himeno.run_calls", "count", "higher"},
	{"nanopowder.run_ms", "ms", "lower"},
	{"nanopowder.run_calls", "count", "higher"},
	{"himeno.reference_ms", "ms", "lower"},
	{"sweep.efficiency", "ratio", "higher"},
	// Event counts of one traced Himeno cell and one traced p2p cell.
	{"trace.cl_events", "count", "lower"},
	{"trace.mpi_events", "count", "lower"},
	{"trace.xfer_events", "count", "lower"},
	{"trace.cluster_events", "count", "lower"},
	{"clmpi.overlap_ratio", "ratio", "higher"},
	{"cluster.nic_util", "ratio", "higher"},
	// Direct probes of the serve layer.
	{"serve.decode_us", "us", "lower"},
	{"serve.cache_get_us", "us", "lower"},
	{"serve.cache_put_us", "us", "lower"},
	{"serve.runpoint_ms", "ms", "lower"},
	{"serve.healthz_us", "us", "lower"},
	// Go runtime deltas over the traced passes.
	{"gc.cpu_s", "s", "lower"},
	{"gc.share", "ratio", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.allocs_m", "count", "lower"},
	{"rt.cpu_util", "ratio", "higher"},
	// Virtual-time outputs: must repeat exactly.
	{"model.fig9a_gain_4n", "ratio", "higher"},
	{"model.fig8b_pinned_over_mapped_min", "ratio", "higher"},
	{"model.fig10_gain_min", "ratio", "higher"},
	{"model.serial_sim_ms", "ms", "lower"},
	{"model.part_sim_ms", "ms", "lower"},
	{"model.vt_digest", "hash", "lower"},
	// The cost of tracing itself and the run's size.
	{"bench.trace_overhead", "ratio", "lower"},
	{"bench.passes", "count", "higher"},
	// Phase breakdowns of the untraced passes of the traced run.
	{"paper.fig8_s", "s", "lower"},
	{"paper.fig9_s", "s", "lower"},
	{"paper.fig10_s", "s", "lower"},
	{"paper.verify_s", "s", "lower"},
	{"matchscale.serial_s", "s", "lower"},
	{"matchscale.part_s", "s", "lower"},
	{"serve.cold_jobs_per_s", "1/s", "higher"},
	{"serve.warm_jobs_per_s", "1/s", "higher"},
	{"serve.cold_p50_ms", "ms", "lower"},
	{"serve.cold_p99_ms", "ms", "lower"},
	{"serve.cold_samples", "count", "higher"},
	{"serve.warm_p50_ms", "ms", "lower"},
	{"serve.warm_p99_ms", "ms", "lower"},
	{"serve.warm_samples", "count", "higher"},
	{"serve.cache_hits", "count", "higher"},
}

// hostInfo fingerprints the host, the toolchain, the fixed parallelism and
// the measured source tree.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Workers    int    `json:"workers"` // sweep, partition and serve pool width, and serve clients
	Commit     string `json:"commit"`
	Source     string `json:"source"` // digest of the checkout's files
}

func (h hostInfo) json() string {
	b, _ := json.Marshal(h) // a struct of strings and ints always marshals
	return string(b)
}

func fingerprint() (hostInfo, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return hostInfo{}, err
	}
	return hostInfo{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: cpuModel(), Workers: fixedWorkers, Commit: gitCommit("."), Source: src,
	}, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves .git/HEAD under root without running git; "none" when
// the tree is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every regular file under root outside dot-directories
// (version control, build outputs): the identity of the measured program.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// digestNumber maps a hex digest onto an exactly representable number (its
// first 48 bits), so it can ride in the metrics.
func digestNumber(digest string) float64 {
	b, err := hex.DecodeString(digest)
	if err != nil || len(b) < 6 {
		return 0
	}
	var buf [8]byte
	copy(buf[2:], b[:6])
	return float64(binary.BigEndian.Uint64(buf[:]))
}

// vtDigest hashes a canonical text rendering of virtual-time outputs.
func vtDigest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// storedModel is what one run records about its virtual-time outputs.
type storedModel struct {
	Digest string             `json:"digest"`
	Model  map[string]float64 `json:"model"`
}

// checkStore compares this run's virtual-time outputs with those an earlier
// run of the same source, workload and inputs recorded under key, recording
// them when none exist. It returns a description of any mismatch.
func checkStore(dir, key, digest string, model map[string]float64) (string, error) {
	path := filepath.Join(dir, key+".json")
	if b, err := os.ReadFile(path); err == nil {
		var prev storedModel
		if err := json.Unmarshal(b, &prev); err != nil {
			return "", fmt.Errorf("read %s: %w", path, err)
		}
		if prev.Digest != digest {
			return fmt.Sprintf("virtual-time digest %s differs from the earlier run's %s (%s)", digest, prev.Digest, path), nil
		}
		for k, v := range model {
			if prev.Model[k] != v {
				return fmt.Sprintf("model.%s = %v differs from the earlier run's %v", k, v, prev.Model[k]), nil
			}
		}
		return "", nil
	} else if !os.IsNotExist(err) {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(storedModel{Digest: digest, Model: model})
	if err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return "", err
	}
	return "", os.Rename(tmp, path)
}

// Command clmpi-loadgen load-tests a running clmpi-serve daemon: it fires
// bursts of concurrent sweep jobs, measures completion latency and
// throughput, verifies that every burst after the first returns
// byte-identical results served from the content-addressed cache, and writes
// a JSON summary (the serve-smoke CI artifact; BENCH_serve.json's grid is
// the in-process BenchmarkServe twin of this measurement).
//
// Usage:
//
//	clmpi-serve -addr 127.0.0.1:8177 &
//	clmpi-loadgen -addr 127.0.0.1:8177 -jobs 1000 -bursts 2 -expect-cached -out serve-load.json
//	clmpi-loadgen -addr 127.0.0.1:8177 -spec-file examples/systems/hopper.json -bursts 2 -expect-cached
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8177", "clmpi-serve address")
	jobs := flag.Int("jobs", 1000, "jobs per burst")
	concurrency := flag.Int("concurrency", 0, "in-flight request cap (0 = all jobs at once)")
	bursts := flag.Int("bursts", 2, "number of identical bursts (burst 2+ should be pure cache hits)")
	system := flag.String("system", "cichlid", "system preset submitted with every job")
	specFile := flag.String("spec-file", "", "submit this system spec file inline as system_spec with every job instead of a preset name")
	spread := flag.Int("spread", 0, "number of distinct job configs per burst (0 = every job distinct)")
	sizeBase := flag.Int64("size-base", 64<<10, "base p2p message size in bytes")
	expectCached := flag.Bool("expect-cached", false, "exit non-zero unless bursts after the first are fully served from cache")
	out := flag.String("out", "", "write the JSON summary to this file (also printed)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout")
	flag.Parse()

	tool := cli.New("clmpi-loadgen")
	// The spec file rides along verbatim inside every job body; the daemon
	// canonicalizes it, so formatting differences cannot defeat the cache.
	var inlineSpec []byte
	if *specFile != "" {
		raw, err := os.ReadFile(*specFile)
		tool.BadFlag(err)
		if !json.Valid(raw) {
			tool.BadFlag(fmt.Errorf("%s: not valid JSON", *specFile))
		}
		inlineSpec = raw
	}

	client := &http.Client{Timeout: *timeout}
	base := "http://" + *addr
	if _, err := client.Get(base + "/healthz"); err != nil {
		tool.Check(fmt.Errorf("daemon not reachable: %w", err))
	}

	summary := Summary{Addr: *addr, Jobs: *jobs, Bursts: *bursts}
	// resultSums[i] is the digest of job i's result from the first burst;
	// later bursts must reproduce it byte for byte.
	resultSums := make([][32]byte, *jobs)
	ok := true
	for b := 0; b < *bursts; b++ {
		hitsBefore := scrapeMetric(client, base, "clmpi_serve_cache_hits_total")
		bs, sums := runBurst(client, base, *jobs, *concurrency, *system, inlineSpec, *spread, *sizeBase)
		bs.CacheHits = scrapeMetric(client, base, "clmpi_serve_cache_hits_total") - hitsBefore
		bs.CacheHitRatio = scrapeMetric(client, base, "clmpi_serve_cache_hit_ratio")
		for i, sum := range sums {
			if b == 0 {
				resultSums[i] = sum
			} else if sum != resultSums[i] {
				bs.Mismatches++
			}
		}
		summary.Results = append(summary.Results, bs)
		if bs.Errors > 0 || bs.Mismatches > 0 {
			ok = false
		}
		if b > 0 && *expectCached && bs.CacheHits < float64(*jobs) {
			fmt.Fprintf(os.Stderr, "clmpi-loadgen: burst %d: only %.0f/%d jobs served from cache\n", b+1, bs.CacheHits, *jobs)
			ok = false
		}
	}

	data, _ := json.MarshalIndent(summary, "", "  ")
	data = append(data, '\n')
	os.Stdout.Write(data)
	if *out != "" {
		tool.Check(os.WriteFile(*out, data, 0o644))
	}
	if !ok {
		os.Exit(2)
	}
}

// Summary is the emitted document.
type Summary struct {
	Addr    string  `json:"addr"`
	Jobs    int     `json:"jobs_per_burst"`
	Bursts  int     `json:"bursts"`
	Results []Burst `json:"results"`
}

// Burst aggregates one burst's outcome. Latency quantiles come from a
// fixed-bucket obs.Histogram — constant memory however large the burst, at
// the price of bucket-resolution quantiles (each quantile reads as its
// bucket's upper bound, clamped to the observed maximum). CacheHits is the
// burst's delta of the daemon's clmpi_serve_cache_hits_total counter;
// CacheHitRatio is the daemon's lifetime ratio gauge after the burst — both
// scraped from the Prometheus /metricz exposition.
type Burst struct {
	Errors        int     `json:"errors"`
	Mismatches    int     `json:"result_mismatches"`
	Seconds       float64 `json:"seconds"`
	JobsPerSec    float64 `json:"jobs_per_s"`
	P50ms         float64 `json:"p50_ms"`
	P90ms         float64 `json:"p90_ms"`
	P99ms         float64 `json:"p99_ms"`
	P999ms        float64 `json:"p99_9_ms"`
	MaxMs         float64 `json:"max_ms"`
	CacheHits     float64 `json:"cache_hits"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// jobBody builds job i's submission. With spread > 0 configurations repeat
// every spread jobs (so one burst already exercises the cache); with
// spread 0 every job in a burst is a distinct configuration. A non-nil
// inlineSpec replaces the preset name with an inline system_spec document.
func jobBody(i, spread int, system string, inlineSpec []byte, sizeBase int64) []byte {
	k := i
	if spread > 0 {
		k = i % spread
	}
	size := sizeBase + int64(k)*1024
	if inlineSpec != nil {
		return fmt.Appendf(nil, `{"system_spec":%s,"workload":"p2p","strategies":["pinned"],"sizes":[%d]}`, inlineSpec, size)
	}
	return fmt.Appendf(nil, `{"system":%q,"workload":"p2p","strategies":["pinned"],"sizes":[%d]}`, system, size)
}

// runBurst submits the burst's jobs concurrently and collects latency and
// result digests (zero digest on error).
func runBurst(client *http.Client, base string, jobs, concurrency int, system string, inlineSpec []byte, spread int, sizeBase int64) (Burst, [][32]byte) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs int
	)
	lat := obs.NewHistogram(obs.DefaultLatencyBounds)
	sums := make([][32]byte, jobs)
	sem := make(chan struct{}, max(concurrency, 1))
	useSem := concurrency > 0
	start := time.Now()
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if useSem {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			t0 := time.Now()
			raw, err := submitAndWait(client, base, jobBody(i, spread, system, inlineSpec, sizeBase))
			elapsed := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs++
				return
			}
			sums[i] = sha256.Sum256(raw)
			lat.Observe(elapsed.Seconds())
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	bs := Burst{
		Errors:  errs,
		Seconds: elapsed.Seconds(),
	}
	if elapsed > 0 {
		bs.JobsPerSec = float64(jobs-errs) / elapsed.Seconds()
	}
	bs.P50ms = lat.Quantile(0.50) * 1e3
	bs.P90ms = lat.Quantile(0.90) * 1e3
	bs.P99ms = lat.Quantile(0.99) * 1e3
	bs.P999ms = lat.Quantile(0.999) * 1e3
	bs.MaxMs = lat.Max() * 1e3
	return bs, sums
}

// submitAndWait posts one job with ?wait=1 and returns the raw result field.
func submitAndWait(client *http.Client, base string, body []byte) (json.RawMessage, error) {
	resp, err := client.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var status struct {
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || status.Status != "done" {
		return nil, fmt.Errorf("job ended %q (http %d): %s", status.Status, resp.StatusCode, status.Error)
	}
	return status.Result, nil
}

// scrapeMetric reads one unlabeled sample from the daemon's Prometheus
// /metricz exposition (0 if absent or unreachable).
func scrapeMetric(client *http.Client, base, name string) float64 {
	resp, err := client.Get(base + "/metricz")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, _ := strconv.ParseFloat(fields[1], 64)
			return v
		}
	}
	return 0
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
)

// serveWorkload drives the sweep daemon over loopback HTTP in a closed
// loop: fixedWorkers clients, each posting its next job with
// POST /v1/jobs?wait=1 only once the previous one has answered. A pass
// starts a fresh daemon (set-up), submits the seed's distinct one-point p2p
// jobs — each a cache miss that simulates and writes the cache (phase 1,
// "cold") — and then resubmits the same jobs warmRepeats times in shuffled
// orders, every one a cache hit (phase 2, "warm").
type serveWorkload struct {
	bodies      [][]byte // job submissions, all distinct
	warmRepeats int
	rng         *rand.Rand
}

const hitsCounter = "clmpi_serve_cache_hits_total"

func newServe(seed int64, smoke bool) *serveWorkload {
	jobs, repeats := 128, 4
	if smoke {
		jobs, repeats = 8, 2
	}
	rng := rand.New(rand.NewSource(seed))
	systems := []string{"cichlid", "ricc"}
	impls := bench.Fig8Impls()
	seen := map[string]bool{}
	w := &serveWorkload{warmRepeats: repeats, rng: rng}
	for len(w.bodies) < jobs {
		// 256 KiB to 2 MiB in 4 KiB steps: big enough to simulate real
		// transfers, small enough that HTTP cost stays visible.
		size := int64(64+rng.Intn(449)) * 4096
		body := fmt.Sprintf(`{"system":%q,"workload":"p2p","strategies":[%q],"sizes":[%d]}`,
			systems[rng.Intn(len(systems))], impls[rng.Intn(len(impls))].Name, size)
		if !seen[body] {
			seen[body] = true
			w.bodies = append(w.bodies, []byte(body))
		}
	}
	return w
}

func (w *serveWorkload) seeded() bool { return true }

// daemon is one in-process clmpi-serve: a manager mounted on a loopback
// HTTP server.
type daemon struct {
	m      *serve.Manager
	srv    *http.Server
	url    string
	client *http.Client
	done   chan struct{} // closed when the serve loop has exited
}

func startDaemon() (*daemon, error) {
	m, err := serve.NewManager(serve.Options{Workers: fixedWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		m:      m,
		srv:    &http.Server{Handler: serve.NewServer(m)},
		url:    "http://" + ln.Addr().String(),
		done:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fixedWorkers}},
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns ErrServerClosed once stop shuts it down
	}()
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the server down and returns once its serve loop has exited.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.done
}

// jobReply is the part of a job status the benchmark checks.
type jobReply struct {
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// submit posts one job and waits for it to finish.
func (d *daemon) submit(body []byte) (jobReply, error) {
	resp, err := d.client.Post(d.url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobReply{}, err
	}
	defer resp.Body.Close()
	var r jobReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return jobReply{}, err
	}
	if resp.StatusCode != http.StatusOK || r.Status != string(serve.StatusDone) {
		return r, fmt.Errorf("job %s: HTTP %d, status %q", body, resp.StatusCode, r.Status)
	}
	return r, nil
}

// closedLoop submits bodies[order[k]] for every k from fixedWorkers
// clients and calls check with each reply (from the client goroutines).
// It returns the per-job latencies in ms.
func (d *daemon) closedLoop(bodies [][]byte, order []int, check func(job int, r jobReply, err error)) []float64 {
	lat := make([]float64, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < fixedWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				t := time.Now()
				r, err := d.submit(bodies[order[k]])
				lat[k] = float64(time.Since(t)) / 1e6
				check(order[k], r, err)
			}
		}()
	}
	wg.Wait()
	return lat
}

func (w *serveWorkload) pass(traced bool) (passResult, error) {
	pr := passResult{parts: map[string]float64{}, samples: map[string][]float64{}}
	t0 := time.Now()
	d, err := startDaemon()
	if err != nil {
		return pr, err
	}
	defer d.stop()
	pr.setup = time.Since(t0)

	var failed atomic.Int64
	// Phase 1, cold: every job misses, simulates and fills the cache.
	results := make([][]byte, len(w.bodies))
	order := make([]int, len(w.bodies))
	for i := range order {
		order[i] = i
	}
	t1 := time.Now()
	cold := d.closedLoop(w.bodies, order, func(job int, r jobReply, err error) {
		if err != nil || r.Cached {
			failed.Add(1)
			return
		}
		results[job] = r.Result // each job index is written by one client only
	})
	pr.phase1 = time.Since(t1)

	// Phase 2, warm: the same jobs again in shuffled orders, all hits with
	// byte-identical results.
	warmOrder := make([]int, 0, len(w.bodies)*w.warmRepeats)
	for rep := 0; rep < w.warmRepeats; rep++ {
		for _, i := range w.rng.Perm(len(w.bodies)) {
			warmOrder = append(warmOrder, i)
		}
	}
	hits0 := d.m.Counter(hitsCounter)
	t2 := time.Now()
	warm := d.closedLoop(w.bodies, warmOrder, func(job int, r jobReply, err error) {
		if err != nil || !r.Cached || !bytes.Equal(r.Result, results[job]) {
			failed.Add(1)
		}
	})
	pr.phase2 = time.Since(t2)
	hits := d.m.Counter(hitsCounter) - hits0

	pr.attempted = len(order) + len(warmOrder) + 1
	pr.failed = int(failed.Load())
	if int(hits) != len(warmOrder) {
		pr.failed++
	}
	pr.samples["serve.cold_ms"] = cold
	pr.samples["serve.warm_ms"] = warm
	pr.parts["serve.cold_jobs_per_s"] = float64(len(order)) / pr.phase1.Seconds()
	pr.parts["serve.warm_jobs_per_s"] = float64(len(warmOrder)) / pr.phase2.Seconds()
	pr.parts["serve.cache_hits"] = hits
	pr.digest = vtDigest(string(bytes.Join(results, []byte{0})))
	return pr, nil
}

// layerMetrics probes the serve layer's pieces directly: decoding and
// normalizing a submission, the result cache, one grid point's simulation,
// and the cheapest HTTP round trip.
func (w *serveWorkload) layerMetrics(m map[string]float64, _ *cpuShares) error {
	const probe = 100 * time.Millisecond
	var specs []serve.JobSpec
	var hashes []string
	var err error
	m["serve.decode_us"] = perCall(probe, func(i int) {
		if err != nil {
			return
		}
		spec, hash, derr := serve.Decode(w.bodies[i%len(w.bodies)])
		if derr != nil {
			err = derr
			return
		}
		if len(specs) < len(w.bodies) {
			specs, hashes = append(specs, spec), append(hashes, hash)
		}
	}) * 1e6
	if err != nil {
		return err
	}
	results := make([][]byte, len(specs))
	m["serve.runpoint_ms"] = perCall(probe, func(i int) {
		k := i % len(specs)
		pt, rerr := serve.RunPoint(specs[k], 0)
		if rerr == nil {
			results[k], rerr = serve.MarshalResult(specs[k], []serve.PointResult{pt})
		}
		if rerr != nil && err == nil {
			err = rerr
		}
	}) * 1e3
	if err != nil {
		return err
	}
	// Cache keys and payloads: the points the probe above got round to.
	n := 0
	for n < len(results) && results[n] != nil {
		n++
	}
	cache, err := serve.NewCache(4096, "")
	if err != nil {
		return err
	}
	m["serve.cache_put_us"] = perCall(probe, func(i int) {
		if perr := cache.Put(hashes[i%n], results[i%n]); perr != nil && err == nil {
			err = perr
		}
	}) * 1e6
	m["serve.cache_get_us"] = perCall(probe, func(i int) {
		if _, ok := cache.Get(hashes[i%n]); !ok && err == nil {
			err = errors.New("serve probe: cache miss after put")
		}
	}) * 1e6
	if err != nil {
		return err
	}
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	m["serve.healthz_us"] = perCall(probe, func(int) {
		resp, gerr := d.client.Get(d.url + "/healthz")
		if gerr != nil {
			err = gerr
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}) * 1e6
	return err
}

// perCall calls fn(0), fn(1), … for at least d and returns the mean seconds
// per call.
func perCall(d time.Duration, fn func(i int)) float64 {
	start := time.Now()
	i := 0
	for ; i == 0 || time.Since(start) < d; i++ {
		fn(i)
	}
	return time.Since(start).Seconds() / float64(i)
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testServer mounts a fresh manager on an httptest server.
func testServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(ts.Close)
	return m, ts
}

// postJob submits a body with ?wait=1 and decodes the status.
func postJob(t *testing.T, ts *httptest.Server, body string) JobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs: %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerEndToEnd drives the full HTTP surface on a real (small) p2p job:
// submit, list, status, content-addressed result, metrics, trace export, and
// the SSE stream of a finished job.
func TestServerEndToEnd(t *testing.T) {
	m, ts := testServer(t, Options{Workers: 2})
	body := `{"system":"cichlid","strategies":["pinned","mapped"],"sizes":[65536,262144]}`

	st := postJob(t, ts, body)
	if st.Status != StatusDone || st.Cached || st.Completed != 4 || len(st.Result) == 0 {
		t.Fatalf("first submit: %+v", st)
	}
	var res Result
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 || res.Points[0].Strategy != "pinned" || res.Points[0].Bytes != 65536 || res.Points[0].MBps <= 0 {
		t.Fatalf("result points: %+v", res.Points)
	}

	// The raw cached document is served by content address.
	resp, err := http.Get(ts.URL + "/v1/results/" + st.Hash)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !json.Valid(raw) {
		t.Fatalf("results endpoint: %d %q", resp.StatusCode, raw)
	}

	// Resubmission is a cache hit, observable in the metrics.
	st2 := postJob(t, ts, body)
	if !st2.Cached || st2.Status != StatusDone || st2.Hash != st.Hash {
		t.Fatalf("second submit not cached: %+v", st2)
	}
	if hits := m.Counter("clmpi_serve_cache_hits_total"); hits != 1 {
		t.Fatalf("clmpi_serve_cache_hits_total = %v, want 1", hits)
	}
	resp, err = http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	metricz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metricz content type = %q, want Prometheus 0.0.4", ct)
	}
	for _, want := range []string{
		"clmpi_serve_cache_hits_total 1",
		"clmpi_serve_jobs_completed_total 2",
		"clmpi_serve_cache_hit_ratio 0.5",
		"# TYPE clmpi_serve_job_wall_seconds histogram",
	} {
		if !strings.Contains(string(metricz), want) {
			t.Errorf("metricz missing %q:\n%s", want, metricz)
		}
	}

	// Listing shows both jobs in submission order.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != st.ID || list[1].ID != st2.ID {
		t.Fatalf("list: %+v", list)
	}

	// The SSE stream of a finished job replays all points then done.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := bytes.Count(stream, []byte("event: point")); got != 4 {
		t.Fatalf("SSE points = %d, want 4:\n%s", got, stream)
	}
	if !bytes.Contains(stream, []byte("event: done")) {
		t.Fatalf("SSE stream missing done event:\n%s", stream)
	}

	// The trace export carries one span per job on the serve layer.
	resp, err = http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	trc, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !json.Valid(trc) || !bytes.Contains(trc, []byte("jobs.done")) {
		t.Fatalf("tracez: %s", trc)
	}
}

// TestServerSSELiveStream: a subscriber attached while the job runs receives
// the late points over the open connection, then the done event.
func TestServerSSELiveStream(t *testing.T) {
	m, ts := testServer(t, Options{Workers: 1})
	started := make(chan int, 8)
	release := make(chan struct{}, 8)
	m.runPoint = func(spec JobSpec, i int, _ *obs.Sim) (PointResult, error) {
		started <- i
		<-release
		return PointResult{Strategy: "stub", Bytes: int64(i + 1), MBps: 1}, nil
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"system":"cichlid","strategies":["pinned"],"sizes":[1024,2048]}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	<-started // point 0 in flight, stream attaches mid-run

	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	release <- struct{}{}
	go func() { <-started; release <- struct{}{} }()
	stream, err := io.ReadAll(resp.Body) // returns when the handler finishes
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(stream, []byte("event: point")); got != 2 {
		t.Fatalf("SSE points = %d, want 2:\n%s", got, stream)
	}
	if !bytes.Contains(stream, []byte(`"status":"done"`)) {
		t.Fatalf("SSE done payload missing:\n%s", stream)
	}
}

// TestServerCancel: DELETE aborts a running job over HTTP.
func TestServerCancel(t *testing.T) {
	m, ts := testServer(t, Options{Workers: 1})
	started := make(chan int, 8)
	release := make(chan struct{})
	m.runPoint = func(spec JobSpec, i int, _ *obs.Sim) (PointResult, error) {
		started <- i
		<-release
		return PointResult{Strategy: "stub", Bytes: int64(i + 1), MBps: 1}, nil
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"system":"cichlid","strategies":["pinned"],"sizes":[1024,2048,4096]}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	close(release)
	job, _ := m.Job(st.ID)
	m.Wait(job)
	if got := job.StatusNow(); got != StatusCanceled {
		t.Fatalf("status = %s, want %s", got, StatusCanceled)
	}
}

// TestServerRejects: malformed and unknown requests get 4xx JSON errors.
func TestServerRejects(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/jobs", `{"system":"bluegene"}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"system":"cichlid","strategys":[]}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `not json`, http.StatusBadRequest},
		{"GET", "/v1/jobs/j999", "", http.StatusNotFound},
		{"DELETE", "/v1/jobs/j999", "", http.StatusNotFound},
		{"GET", "/v1/results/deadbeef", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.want, raw)
		}
		if !json.Valid(raw) {
			t.Errorf("%s %s: non-JSON error body %q", tc.method, tc.path, raw)
		}
	}
}

// TestServerSurvivesUnrunnableJobs: a job with a point its run package
// rejects gets a 400 at submission, and the daemon keeps serving.
func TestServerSurvivesUnrunnableJobs(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, body := range unrunnableBodies(t) {
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the rejected jobs: %d, want 200", resp.StatusCode)
	}
}

// TestServerWaitTimeoutFree: submitting without wait returns immediately
// with a running status that later converges to done.
func TestServerWaitTimeoutFree(t *testing.T) {
	m, ts := testServer(t, Options{Workers: 2})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"system":"cichlid","strategies":["pinned"],"sizes":[65536]}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	job, ok := m.Job(st.ID)
	if !ok {
		t.Fatal("job not registered")
	}
	m.Wait(job)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got JobStatus
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if got.Status == StatusDone && len(got.Result) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never converged: %+v", got)
		}
	}
}

// TestJobTablePruned: past the retention cap Submit drops the oldest
// terminal jobs, keeps a running job however old, exports the table size,
// and a pruned job's status reads 404.
func TestJobTablePruned(t *testing.T) {
	m, ts := testServer(t, Options{Workers: 2})
	const retain = 3
	m.retain = retain
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	m.runPoint = func(spec JobSpec, i int, _ *obs.Sim) (PointResult, error) {
		if spec.Sizes[0] == 1<<20 {
			started <- struct{}{}
			<-release
		}
		return PointResult{Strategy: "stub", Bytes: spec.Sizes[0], MBps: 1}, nil
	}
	submit := func(size int64) *Job {
		t.Helper()
		job, err := m.Submit(JobSpec{System: "cichlid", Strategies: []string{"pinned"}, Sizes: []int64{size}})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	running := submit(1 << 20)
	<-started
	first := submit(1 << 10)
	m.Wait(first)
	// retain+1 cache hits: each is terminal the moment Submit registers it.
	var hits []*Job
	for i := 0; i < retain+1; i++ {
		hits = append(hits, submit(1<<10))
	}

	jobs := m.Jobs()
	want := []*Job{running, hits[1], hits[2], hits[3]}
	if len(jobs) != len(want) {
		t.Fatalf("retained %d jobs, want %d (the running one plus %d terminal)", len(jobs), len(want), retain)
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Fatalf("retained job %d = %s, want %s", i, jobs[i].ID, want[i].ID)
		}
	}
	if !strings.Contains(m.MetricsText(), "clmpi_serve_jobs_retained 4\n") {
		t.Errorf("metricz does not report 4 retained jobs:\n%s", m.MetricsText())
	}
	for _, job := range []*Job{first, hits[0]} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET pruned job %s: status %d, want 404", job.ID, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + running.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Status != StatusRunning {
		t.Errorf("running job status = %s, want %s", st.Status, StatusRunning)
	}
	close(release)
	m.Wait(running)
}

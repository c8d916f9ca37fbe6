package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// maxBodyBytes bounds a job submission body.
const maxBodyBytes = 1 << 20

// Server is the HTTP face of a Manager. Endpoints:
//
//	POST   /v1/jobs            submit a JobSpec; ?wait=1 blocks until done
//	GET    /v1/jobs            list job statuses (submission order)
//	GET    /v1/jobs/{id}       one job's status (+result when done)
//	DELETE /v1/jobs/{id}       cancel a running job
//	GET    /v1/jobs/{id}/events  per-point progress as SSE
//	GET    /v1/results/{hash}  cached result document by content address
//	GET    /metricz            host-time metrics, Prometheus text exposition
//	                           (?format=json for the JSON view)
//	GET    /debug/flightz      flight-recorder dump (notes + resident events)
//	GET    /tracez             the job table as Chrome trace_event JSON,
//	                           one span per retained job
//	GET    /healthz            liveness probe
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer mounts a Manager.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("GET /v1/results/{hash}", s.resultByHash)
	s.mux.HandleFunc("GET /metricz", s.metricz)
	s.mux.HandleFunc("GET /debug/flightz", s.flightz)
	s.mux.HandleFunc("GET /tracez", s.tracez)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /{$}", s.help)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// submit handles POST /v1/jobs.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: read body: %w", err))
		return
	}
	if len(body) > maxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: body over %d bytes", maxBodyBytes))
		return
	}
	// Strict decode only; Submit normalizes after resolving any
	// daemon-registered system names.
	spec, err := DecodeRaw(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.m.Submit(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if wait := r.URL.Query().Get("wait"); wait == "1" || wait == "true" {
		s.m.Wait(job)
	}
	writeJSON(w, s.m.StatusOf(job, true))
}

// list handles GET /v1/jobs.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = s.m.StatusOf(j, false)
	}
	writeJSON(w, out)
}

// status handles GET /v1/jobs/{id}.
func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, s.m.StatusOf(job, true))
}

// cancel handles DELETE /v1/jobs/{id}.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.m.Cancel(id) {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", id))
		return
	}
	job, _ := s.m.Job(id)
	writeJSON(w, s.m.StatusOf(job, false))
}

// events handles GET /v1/jobs/{id}/events: replays the points recorded so
// far, then streams the rest as server-sent events, ending with one "done"
// event carrying the terminal status.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, fmt.Errorf("serve: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	past, live := job.Subscribe()
	for _, ev := range past {
		writeSSE(w, "point", ev)
	}
	fl.Flush()
	if live != nil {
		for {
			select {
			case ev, ok := <-live:
				if !ok {
					live = nil
				} else {
					writeSSE(w, "point", ev)
					fl.Flush()
				}
			case <-r.Context().Done():
				return
			}
			if live == nil {
				break
			}
		}
	}
	writeSSE(w, "done", s.m.StatusOf(job, false))
	fl.Flush()
}

// resultByHash handles GET /v1/results/{hash}.
func (s *Server) resultByHash(w http.ResponseWriter, r *http.Request) {
	data, ok := s.m.Result(r.PathValue("hash"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no cached result %q", r.PathValue("hash")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// metricz handles GET /metricz: Prometheus text exposition by default, the
// legacy JSON view under ?format=json.
func (s *Server) metricz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, s.m.MetricsJSON())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.m.MetricsText())
}

// flightz handles GET /debug/flightz: a consistent snapshot of the flight
// recorder, taken without stopping any worker.
func (s *Server) flightz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.m.FlightDump(w)
}

// tracez handles GET /tracez.
func (s *Server) tracez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.m.WriteTrace(w); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}

// help handles GET /.
func (s *Server) help(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, strings.TrimLeft(`
clmpi-serve: deterministic cluster what-if service.

  POST /v1/jobs            submit {"system":"cichlid",...} (?wait=1 blocks)
  GET  /v1/jobs            list jobs
  GET  /v1/jobs/{id}       job status and result
  GET  /v1/jobs/{id}/events  per-point progress (SSE)
  GET  /v1/results/{hash}  cached result by content address
  GET  /metricz  /debug/flightz  /tracez  /healthz
`, "\n"))
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeSSE writes one server-sent event with a JSON payload.
func writeSSE(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf("{%q:%q}", "error", err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Package server implements sharesimd's HTTP serving layer: a job
// manager with a bounded worker pool, a deduplicating LRU result cache
// with request coalescing, per-job cancellation, server-sent progress
// events and Prometheus text metrics. The simulation work itself runs
// through sim.RunExperiments, the direct path cmd/sharesim takes too, so
// a job's tables are bit-identical to the CLI's -json output for the
// same knobs (docs/API.md lists where the two defaults differ).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sharellc/internal/cluster"
	"sharellc/internal/report"
	"sharellc/internal/sim"
)

// Server wires the Manager to an http.Handler.
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// New builds a Server (and its Manager) from cfg.
func New(cfg Config) *Server {
	s := &Server{m: newManager(cfg), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	switch {
	case cfg.Coordinator != nil:
		// Worker-facing bundle protocol plus GET /v1/streams/{hash}.
		cfg.Coordinator.Register(s.mux)
	case cfg.StreamCache != nil:
		// Even a single-mode daemon serves its snapshots, so a cluster
		// spun up later (or a peer worker) can seed from it.
		s.mux.HandleFunc("GET /v1/streams/{hash}", cluster.StreamHandler(cfg.StreamCache, nil))
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Manager exposes the job manager, mainly for Shutdown.
func (s *Server) Manager() *Manager { return s.m }

// jobView is the JSON representation of a job returned by the API.
type jobView struct {
	ID       string          `json:"id"`
	Exp      string          `json:"exp"`
	State    State           `json:"state"`
	Cached   bool            `json:"cached"`
	Error    string          `json:"error,omitempty"`
	Tables   []*report.Table `json:"tables,omitempty"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
}

func viewOf(j *Job) jobView {
	state, errMsg, tables, cached, created, started, finished := j.snapshot()
	v := jobView{
		ID:      j.ID,
		Exp:     j.Request.Exp,
		State:   state,
		Cached:  cached,
		Error:   errMsg,
		Created: created,
	}
	if !started.IsZero() {
		v.Started = &started
	}
	if !finished.IsZero() {
		v.Finished = &finished
	}
	if state == stateDone {
		v.Tables = tables
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxJobBody bounds a POST /v1/jobs body. The largest legitimate body —
// every field spelled out, all 22 workloads and all 14 policies — is
// under 1 KiB; the limit leaves room for any formatting of it.
const maxJobBody = 16 << 10

// decodeJob decodes one job body, rejecting unknown fields, and reads the
// body to its end so that a body past its byte limit fails wherever the
// excess sits.
func decodeJob(body io.Reader) (sim.JobRequest, error) {
	var req sim.JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		_, err = io.Copy(io.Discard, body)
	}
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJob(http.MaxBytesReader(w, r.Body, maxJobBody))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	job, fresh, err := s.m.submit(req)
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusAccepted
	if !fresh {
		status = http.StatusOK // cache hit or coalesced: nothing new started
	}
	writeJSON(w, status, viewOf(job))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, viewOf(job))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.m.cancel(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
}

// handleEvents streams the job's lifecycle as server-sent events: the
// recorded history first, then live events until a terminal state or
// client disconnect.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %s", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, live, unsub := job.subscribe()
	defer unsub()

	emit := func(ev Event) bool {
		b, _ := json.Marshal(ev)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, b)
		fl.Flush()
		return !(ev.Type == "state" && ev.State.terminal())
	}
	for _, ev := range history {
		if !emit(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-live:
			if !emit(ev) {
				return
			}
		case <-job.Done():
			// Drain whatever the subscription buffered, then re-emit the
			// terminal state in case the buffer dropped it.
			for {
				select {
				case ev := <-live:
					if !emit(ev) {
						return
					}
				default:
					state, _, _, _, _, _, _ := job.snapshot()
					emit(Event{Type: "state", State: state})
					return
				}
			}
		}
	}
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expView struct {
		ID         string `json:"id"`
		Title      string `json:"title"`
		NeedsSuite bool   `json:"needs_suite"`
	}
	var out []expView
	for _, e := range sim.Experiments() {
		out = append(out, expView{ID: e.ID, Title: e.Title, NeedsSuite: e.NeedsSuite})
	}
	writeJSON(w, http.StatusOK, out)
}

// healthView is the /healthz body, shared by all three daemon roles.
// Status and the HTTP code carry liveness (503 + "draining" during
// shutdown, preserving the original contract); the rest is a cluster
// operator's at-a-glance state.
type healthView struct {
	Status        string         `json:"status"` // ok | draining
	Role          string         `json:"role"`   // single | coordinator | worker
	Workers       occupancyView  `json:"workers"`
	SnapshotStore *snapshotStore `json:"snapshot_store,omitempty"`
	Bundles       *bundleGauges  `json:"bundles,omitempty"`
}

type occupancyView struct {
	Busy  int `json:"busy"`
	Total int `json:"total"`
}

type snapshotStore struct {
	MemBytes  uint64 `json:"mem_bytes"`
	DiskBytes uint64 `json:"disk_bytes"`
	DiskFiles int    `json:"disk_files"`
}

type bundleGauges struct {
	Pending  int `json:"pending"`
	Inflight int `json:"inflight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := s.m
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	m.met.mu.Lock()
	busy := m.met.inflight
	m.met.mu.Unlock()

	role := "single"
	if m.cfg.Coordinator != nil {
		role = "coordinator"
	}
	hv := healthView{
		Status:  "ok",
		Role:    role,
		Workers: occupancyView{Busy: busy, Total: m.cfg.Workers},
	}
	if m.cfg.StreamCache != nil {
		st := m.cfg.StreamCache.Stats()
		hv.SnapshotStore = &snapshotStore{MemBytes: st.BytesInMem, DiskBytes: st.DiskBytes, DiskFiles: st.DiskFiles}
	}
	if m.cfg.Coordinator != nil {
		cs := m.cfg.Coordinator.Stats()
		hv.Bundles = &bundleGauges{Pending: cs.BundlesPending, Inflight: cs.BundlesInflight}
	}
	if draining {
		hv.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, hv)
		return
	}
	writeJSON(w, http.StatusOK, hv)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.met.write(w)
}

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
	"net/http"
	"time"

	"sharellc/internal/cluster"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// Server is the HTTP surface of one sharesimd role, built from the parts
// the role has. A Manager serves the job API (single and coordinator
// roles) and its Coordinator the bundle protocol; a cluster.Worker makes
// the worker role, which serves no job API. Every role with a stream
// cache serves its snapshots, and /healthz and /metrics render whichever
// parts exist.
type Server struct {
	m       *Manager
	coord   *cluster.Coordinator
	worker  *cluster.Worker
	streams *streamcache.Cache
	mux     *http.ServeMux
}

// New builds the Server of a single or coordinator role from its Manager
// m, or of a worker role from w; the other one is nil. The Coordinator
// and the stream cache come from m's Config or w's WorkerConfig.
func New(m *Manager, w *cluster.Worker) *Server {
	s := &Server{m: m, worker: w, mux: http.NewServeMux()}
	if m != nil {
		s.coord, s.streams = m.cfg.Coordinator, m.cfg.StreamCache
		s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
		s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
		s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
		s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
		s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	} else {
		s.streams = w.Config().Cache
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	switch {
	case s.coord != nil:
		// Worker-facing bundle protocol plus GET /v1/streams/{hash}.
		s.coord.Register(s.mux)
	case s.streams != nil:
		// A worker serves its snapshots to peers, and so does a single
		// daemon, so a cluster spun up later can seed from it.
		s.mux.HandleFunc("GET /v1/streams/{hash}", cluster.StreamHandler(s.streams, nil))
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

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

// maxJobBody bounds a POST /v1/jobs body. The largest legitimate body —
// every field spelled out, all 22 workloads and all 14 policies — is
// under 1 KiB; the limit leaves room for any formatting of it.
const maxJobBody = 16 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req sim.JobRequest
	if !cluster.DecodeBody(w, r, maxJobBody, "request body", &req) {
		return
	}
	job, fresh, err := s.m.submit(req)
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining):
		cluster.WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		cluster.WriteError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusAccepted
	if !fresh {
		status = http.StatusOK // cache hit or coalesced: nothing new started
	}
	cluster.WriteJSON(w, status, viewOf(job))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, fmt.Errorf("no such job %s", r.PathValue("id")))
		return
	}
	cluster.WriteJSON(w, http.StatusOK, viewOf(job))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.m.cancel(r.PathValue("id")); err != nil {
		cluster.WriteError(w, http.StatusNotFound, err)
		return
	}
	cluster.WriteJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
}

// handleEvents streams the job's lifecycle as server-sent events: the
// recorded history first, then live events until a terminal state or
// client disconnect.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		cluster.WriteError(w, http.StatusNotFound, fmt.Errorf("no such job %s", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		cluster.WriteError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
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
	cluster.WriteJSON(w, http.StatusOK, out)
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
	hv := healthView{Status: "ok", Role: "single"}
	status := http.StatusOK
	if s.worker != nil {
		hv.Role = "worker"
		hv.Workers = occupancyView{Busy: int(s.worker.Stats().Busy), Total: s.worker.Config().Slots}
	} else {
		if s.coord != nil {
			hv.Role = "coordinator"
		}
		s.m.met.mu.Lock()
		hv.Workers = occupancyView{Busy: s.m.met.inflight, Total: s.m.cfg.Workers}
		s.m.met.mu.Unlock()
		s.m.mu.Lock()
		draining := s.m.draining
		s.m.mu.Unlock()
		if draining {
			hv.Status, status = "draining", http.StatusServiceUnavailable
		}
	}
	if s.streams != nil {
		st := s.streams.Stats()
		hv.SnapshotStore = &snapshotStore{MemBytes: st.BytesInMem, DiskBytes: st.DiskBytes, DiskFiles: st.DiskFiles}
	}
	if s.coord != nil {
		cs := s.coord.Stats()
		hv.Bundles = &bundleGauges{Pending: cs.BundlesPending, Inflight: cs.BundlesInflight}
	}
	cluster.WriteJSON(w, status, hv)
}

// handleMetrics renders the families of every part the role has: the
// Manager's (or the worker's) and the mem pool, then the coordinator's
// and the stream cache's.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var fams []family
	if s.worker != nil {
		fams = append(workerFamilies(s.worker.Stats()), memFamily())
	} else {
		fams = s.m.met.families()
	}
	if s.coord != nil {
		fams = append(fams, clusterFamilies(s.coord.Stats())...)
	}
	if s.streams != nil {
		fams = append(fams, streamFamilies(s.streams.Stats())...)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writeFamilies(w, fams)
}

package server

import (
	"fmt"
	"net/http"
	"strings"

	"sharellc/internal/cluster"
	"sharellc/internal/sim/streamcache"
)

// WorkerServer is the HTTP surface of a worker-mode daemon: the peer
// snapshot endpoint plus the /healthz and /metrics conventions every
// sharesimd role serves. Job submission stays on the coordinator; a
// worker's only public API is serving streams it holds.
type WorkerServer struct {
	w     *cluster.Worker
	sc    *streamcache.Cache
	slots int
	mux   *http.ServeMux
}

// NewWorkerServer wires a cluster.Worker into an http.Handler.
func NewWorkerServer(w *cluster.Worker, sc *streamcache.Cache, slots int) *WorkerServer {
	if slots <= 0 {
		slots = 1
	}
	ws := &WorkerServer{w: w, sc: sc, slots: slots, mux: http.NewServeMux()}
	w.Register(ws.mux)
	ws.mux.HandleFunc("GET /healthz", ws.handleHealthz)
	ws.mux.HandleFunc("GET /metrics", ws.handleMetrics)
	return ws
}

func (ws *WorkerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { ws.mux.ServeHTTP(w, r) }

func (ws *WorkerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := ws.w.Stats()
	hv := healthView{
		Status:  "ok",
		Role:    "worker",
		Workers: occupancyView{Busy: int(st.Busy), Total: ws.slots},
	}
	if ws.sc != nil {
		cs := ws.sc.Stats()
		hv.SnapshotStore = &snapshotStore{MemBytes: cs.BytesInMem, DiskBytes: cs.DiskBytes, DiskFiles: cs.DiskFiles}
	}
	writeJSON(w, http.StatusOK, hv)
}

func (ws *WorkerServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := ws.w.Stats()
	var b strings.Builder
	for _, c := range []struct {
		name, help string
		v          uint64
	}{
		{"sharesimd_worker_bundles_done_total", "Bundles executed and delivered successfully.", st.BundlesDone},
		{"sharesimd_worker_bundles_erred_total", "Bundles delivered with an error outcome.", st.BundlesErred},
		{"sharesimd_stream_fetch_total", "Peer/coordinator snapshot fetches attempted.", st.FetchTotal},
		{"sharesimd_stream_fetch_ok_total", "Fetches that validated and installed.", st.FetchOK},
		{"sharesimd_stream_fetch_bytes_total", "Snapshot bytes fetched from peers.", st.FetchBytes},
		{"sharesimd_stream_fetch_errors_total", "Transfers that failed or validated badly (fell soft).", st.FetchErrors},
		{"sharesimd_worker_lease_errors_total", "Control-plane round-trips that failed.", st.LeaseErrors},
	} {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}
	b.WriteString("# HELP sharesimd_worker_busy Bundles executing right now.\n")
	b.WriteString("# TYPE sharesimd_worker_busy gauge\n")
	fmt.Fprintf(&b, "sharesimd_worker_busy %d\n", st.Busy)
	writeMemSeries(&b)
	if ws.sc != nil {
		writeStreamSeries(&b, ws.sc.Stats())
	}
	fmt.Fprint(w, b.String())
}

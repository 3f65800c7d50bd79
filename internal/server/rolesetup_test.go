package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sharellc/internal/cluster"
	"sharellc/internal/sim/streamcache"
)

// serveRole serves one sharesimd role over a real listener, wired as
// cmd/sharesimd wires it: single and coordinator with one job slot, a
// worker with two bundle slots polling coordURL. Each role has a stream
// cache of its own; ctx stops a worker's polling.
func serveRole(t *testing.T, ctx context.Context, role, coordURL string) *httptest.Server {
	t.Helper()
	sc := streamcache.New(streamcache.Options{})
	var h http.Handler
	switch role {
	case "single", "coordinator":
		cfg := Config{Workers: 1, StreamCache: sc}
		if role == "coordinator" {
			cfg.Coordinator = cluster.NewCoordinator(cluster.CoordinatorConfig{Cache: sc})
		}
		m := NewManager(cfg)
		t.Cleanup(func() {
			drain, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			m.Shutdown(drain)
		})
		h = New(m, nil)
	case "worker":
		w, err := cluster.NewWorker(cluster.WorkerConfig{CoordinatorURL: coordURL, Cache: sc, Slots: 2, Poll: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		stopped := make(chan struct{})
		go func() { w.Run(ctx); close(stopped) }()
		t.Cleanup(func() { <-stopped })
		h = New(nil, w)
	default:
		t.Fatalf("unknown role %q", role)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

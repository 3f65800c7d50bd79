package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sharellc/internal/sim/streamcache"
)

// fault is one misbehaviour the injector plays on a request.
type fault int

const (
	noFault   fault = iota
	drop            // a 503, or a connection aborted before or mid reply
	delay           // served after a pause
	duplicate       // served twice: a result posted twice
	corrupt         // one flipped byte: of a snapshot image served, or of a JSON body
	reorder         // a result held back until a later one has landed
)

var faultNames = [...]string{"none", "drop", "delay", "duplicate", "corrupt", "reorder"}

// faultCycles assigns faults to a route's requests in turn: the n-th
// request of a route gets cycle[n % len(cycle)]. Lease polls are mostly
// empty 204s, which a corruption leaves alone.
var everyFault = map[string][]fault{
	"lease":     {noFault, drop, noFault, delay, noFault, noFault, corrupt, noFault},
	"heartbeat": {noFault, delay},
	"result":    {noFault, duplicate, noFault, drop, reorder, noFault, corrupt, noFault},
	"stream":    {corrupt, noFault, drop, delay},
}

// faults is a test-only http.Handler wrapper that injects faults on the
// server side of the bundle protocol and the snapshot transfers, so the
// client code under test runs unchanged. A fault that loses a bundle's
// lease or result costs the bundle a lease attempt; each bundle is
// charged at most one such loss, so no bundle nears maxAttempts.
type faults struct {
	cycles map[string][]fault // by route
	// announceTTL, when non-zero, replaces the TTL a lease reply tells
	// the worker, which heartbeats at a third of it; the coordinator
	// keeps its own.
	announceTTL time.Duration

	mu        sync.Mutex
	seen      map[string]int  // requests per route
	lost      map[string]bool // bundles charged a lost lease or result
	injected  map[fault]int   // faults played, by kind
	landed    chan struct{}   // closed, and replaced, when a result lands
	overtaken int             // held results released by a later one
}

func newFaults(cycles map[string][]fault) *faults {
	return &faults{cycles: cycles, seen: map[string]int{}, lost: map[string]bool{}, injected: map[fault]int{}, landed: make(chan struct{})}
}

// route names the protocol route of a request path, and the bundle a
// result or heartbeat names.
func route(path string) (name, bundle string) {
	switch {
	case path == "/v1/cluster/lease":
		return "lease", ""
	case strings.HasPrefix(path, "/v1/streams/"):
		return "stream", ""
	case strings.HasPrefix(path, "/v1/cluster/bundles/"):
		id, kind, _ := strings.Cut(strings.TrimPrefix(path, "/v1/cluster/bundles/"), "/")
		return kind, id
	}
	return "", ""
}

// pick returns the fault for the next request of route name.
func (f *faults) pick(name string) fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	cycle := f.cycles[name]
	if len(cycle) == 0 {
		return noFault
	}
	f.seen[name]++
	return cycle[f.seen[name]%len(cycle)]
}

// charge records a lost lease or result of bundle, and reports false
// when the bundle has already lost one.
func (f *faults) charge(bundle string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lost[bundle] {
		return false
	}
	f.lost[bundle] = true
	return true
}

func (f *faults) played(k fault) {
	f.mu.Lock()
	f.injected[k]++
	f.mu.Unlock()
}

// land wakes every result held back for reordering.
func (f *faults) land() {
	f.mu.Lock()
	close(f.landed)
	f.landed = make(chan struct{})
	f.mu.Unlock()
}

// wrap injects faults into the requests next serves.
func (f *faults) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, bundle := route(r.URL.Path)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		// serve runs next on a copy of the request body into a recorder.
		serve := func(body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			r.Body = io.NopCloser(bytes.NewReader(body))
			next.ServeHTTP(rec, r)
			if name == "result" {
				f.land()
			}
			return rec
		}
		k := f.pick(name)
		switch {
		case k == drop && (name == "lease" || name == "heartbeat"):
			f.played(drop)
			http.Error(w, "injected fault", http.StatusServiceUnavailable)
			return
		case k == drop && name == "result" && f.charge(bundle):
			f.played(drop)
			panic(http.ErrAbortHandler) // the result never arrives
		case k == delay:
			f.played(delay)
			time.Sleep(30 * time.Millisecond)
		case k == corrupt && name == "result" && f.charge(bundle):
			f.played(corrupt)
			body = append([]byte{body[0] ^ 1}, body[1:]...) // '{' becomes 'z': a 400
		case k == reorder && name == "result":
			f.played(reorder)
			f.mu.Lock()
			later := f.landed
			f.mu.Unlock()
			select {
			case <-later:
				f.mu.Lock()
				f.overtaken++
				f.mu.Unlock()
			case <-time.After(200 * time.Millisecond): // no later result came
			case <-r.Context().Done():
				return
			}
		case k == duplicate && name == "result":
			f.played(duplicate)
			serve(body)
		}
		rec := serve(body)
		out := rec.Body.Bytes()
		if name == "lease" && rec.Code == http.StatusOK && f.announceTTL > 0 {
			var lease leaseResponse
			if json.Unmarshal(out, &lease) == nil {
				lease.TTLMillis = f.announceTTL.Milliseconds()
				out, _ = json.Marshal(lease)
			}
		}
		switch {
		case k == corrupt && name == "stream" && rec.Code == http.StatusOK:
			f.played(corrupt)
			out[len(out)/2] ^= 0x40 // the snapshot's checksum must catch it
		case k == corrupt && name == "lease" && rec.Code == http.StatusOK:
			var lease leaseResponse
			if json.Unmarshal(out, &lease) == nil && f.charge(lease.Bundle.ID) {
				f.played(corrupt)
				out[0] ^= 1 // the worker cannot decode its lease, which expires
			}
		}
		for key, vals := range rec.Header() {
			w.Header()[key] = vals
		}
		w.WriteHeader(rec.Code)
		if k == drop && name == "stream" && rec.Code == http.StatusOK {
			f.played(drop)
			w.Write(out[:len(out)/2])
			panic(http.ErrAbortHandler) // a truncated transfer
		}
		w.Write(out)
	})
}

// startFaultyCluster serves a coordinator with a 500 ms lease TTL and
// three workers, every listener wrapped in inject, until the test ends.
func startFaultyCluster(t *testing.T, inject *faults) (context.Context, *Coordinator) {
	t.Helper()
	coord := NewCoordinator(CoordinatorConfig{
		Cache:    streamcache.New(streamcache.Options{}),
		LeaseTTL: 500 * time.Millisecond,
	})
	mux := http.NewServeMux()
	coord.Register(mux)
	cs := httptest.NewServer(inject.wrap(mux))
	t.Cleanup(cs.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for range 3 {
		wmux := http.NewServeMux()
		ws := httptest.NewServer(inject.wrap(wmux))
		t.Cleanup(ws.Close)
		w, err := NewWorker(WorkerConfig{
			CoordinatorURL: cs.URL,
			SelfURL:        ws.URL,
			Cache:          streamcache.New(streamcache.Options{}),
			Poll:           10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wmux.HandleFunc("GET /v1/streams/{hash}", StreamHandler(w.cfg.Cache, nil))
		stopped := make(chan struct{})
		go func() { w.Run(ctx); close(stopped) }()
		t.Cleanup(func() { cancel(); <-stopped })
	}
	return ctx, coord
}

// TestClusterE2EUnderFaults: three workers execute a catalogue subset
// through a coordinator while every message path misbehaves — requests
// dropped, delayed, duplicated, corrupted and reordered on the server
// side of the coordinator's and the workers' listeners — and the merged
// tables still hash to the catalogue golden. A Run cancelled while the
// faults play frees its job, as TestCancelledRunFreesJob checks without
// them.
func TestClusterE2EUnderFaults(t *testing.T) {
	checkUnderFaults(t, newFaults(everyFault))
}

// TestClusterE2EHeartbeatUnavailable is TestClusterE2EUnderFaults with
// every other heartbeat answered by a 503, as an overloaded coordinator
// or a proxy may answer, and leases that tell workers a 60 ms TTL, so
// they heartbeat every 20 ms and every bundle that runs past one beat
// meets a 503. The coordinator keeps its 500 ms TTL, so a heartbeat
// starved under the race detector does not expire a lease. Only a 404
// (unknown bundle) or a 409 (lease lost) means another worker owns a
// bundle, so no run is cancelled and no bundle fails.
func TestClusterE2EHeartbeatUnavailable(t *testing.T) {
	cycles := maps.Clone(everyFault)
	cycles["heartbeat"] = []fault{noFault, drop}
	inject := newFaults(cycles)
	inject.announceTTL = 60 * time.Millisecond
	coord := checkUnderFaults(t, inject)
	inject.mu.Lock()
	unavailable := (inject.seen["heartbeat"] + 1) / 2 // the 1st, 3rd, … heartbeat
	inject.mu.Unlock()
	if unavailable == 0 {
		t.Error("no heartbeat was answered with a 503")
	}
	if st := coord.Stats(); st.BundlesFailed != 0 {
		t.Errorf("%d bundles failed under %d heartbeat 503s, want 0", st.BundlesFailed, unavailable)
	}
}

// checkUnderFaults runs the fault test with inject's faults and returns
// its coordinator.
func checkUnderFaults(t *testing.T, inject *faults) *Coordinator {
	t.Helper()
	exps := []string{"f1", "f4", "f5", "f8", "m1", "a5"}
	if testing.Short() {
		exps = []string{"f1", "m1"}
	}
	ctx, coord := startFaultyCluster(t, inject)

	// Cancel a Run once its first bundle has landed.
	running, stop := context.WithCancel(ctx)
	_, err := coord.Run(running, goldenRequest("f4"), func(done, total int, label string) {
		if done > 0 {
			stop()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run under faults: %v", err)
	}
	if st := coord.Stats(); st.BundlesPending != 0 || st.JobsInflight != 0 {
		t.Errorf("after a cancelled Run: %d bundles pending, %d jobs in flight; want 0 and 0", st.BundlesPending, st.JobsInflight)
	}
	if lease, ok := coord.lease("probe"); ok {
		t.Errorf("after a cancelled Run, bundle %s of the freed job is still leased out", lease.Bundle.ID)
	}

	for _, exp := range exps {
		req := goldenRequest(exp)
		tables, err := coord.Run(ctx, req, nil)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		checkGolden(t, req, tables)
	}

	inject.mu.Lock()
	defer inject.mu.Unlock()
	for k := drop; k <= reorder; k++ {
		if inject.injected[k] == 0 {
			t.Errorf("no %s fault was injected", faultNames[k])
		}
	}
	if inject.overtaken == 0 {
		t.Error("no held-back result was overtaken by a later one")
	}
	t.Logf("faults injected: drop %d, delay %d, duplicate %d, corrupt %d, reorder %d (%d overtaken)",
		inject.injected[drop], inject.injected[delay], inject.injected[duplicate],
		inject.injected[corrupt], inject.injected[reorder], inject.overtaken)
	return coord
}

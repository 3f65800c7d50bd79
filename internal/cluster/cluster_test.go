package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// tinyMachine keeps whole-catalogue runs in test time.
var tinyMachine = cache.Config{
	Cores:  8,
	L1Size: 2 * cache.KB, L1Ways: 2,
	L2Size: 8 * cache.KB, L2Ways: 4,
	LLCSize: 64 * cache.KB, LLCWays: 8,
}

func testRequest(exps []string) Request {
	return Request{
		Exps:      exps,
		Machine:   &tinyMachine,
		LLCMB:     float64(tinyMachine.LLCSize) / float64(cache.MB),
		Ways:      tinyMachine.LLCWays,
		Seed:      1,
		Scale:     0.02,
		Workloads: []string{"canneal", "streamcluster", "swaptions"},
	}
}

// directTables runs req the way a single daemon would, for byte-compare.
func directTables(t *testing.T, req Request) []*report.Table {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	opts := req.Options()
	var suite *sim.Suite
	var out []*report.Table
	for _, id := range req.Exps {
		exp, err := sim.ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var s *sim.Suite
		if exp.NeedsSuite {
			if suite == nil {
				models, err := sim.ModelsByName(req.Workloads)
				if err != nil {
					t.Fatal(err)
				}
				suite, err = sim.NewSuite(sim.Config{
					Machine: req.MachineConfig(),
					Seed:    req.Seed,
					Scale:   req.Scale,
					Models:  models,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			s = suite
		}
		tabs, err := exp.Run(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tabs...)
	}
	return out
}

func marshalTables(t *testing.T, tables []*report.Table) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, tab := range tables {
		raw, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(raw)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// startCoordinator serves c over a real HTTP listener.
func startCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(cfg)
	mux := http.NewServeMux()
	c.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return c, ts
}

// startWorker launches a polling worker with its own peer-serving
// listener and stream cache.
func startWorker(t *testing.T, ctx context.Context, coordURL string, opts streamcache.Options) *Worker {
	t.Helper()
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	w, err := NewWorker(WorkerConfig{
		CoordinatorURL: coordURL,
		SelfURL:        ts.URL,
		Cache:          streamcache.New(opts),
		Poll:           10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Register(mux)
	go w.Run(ctx)
	return w
}

// TestClusterE2EByteIdentical: three workers over real HTTP execute a
// sweep and the merged tables are byte-identical to the direct run.
// Every workload stream is built at most once cluster-wide: later
// bundles peer-fetch instead of rebuilding.
func TestClusterE2EByteIdentical(t *testing.T) {
	exps := []string{"all"}
	if testing.Short() {
		exps = []string{"config", "f1", "f5", "c1", "m1"}
	}
	req := testRequest(exps)
	want := marshalTables(t, directTables(t, testRequest(exps)))

	var mu sync.Mutex
	builds := map[string]int{}
	hook := func(k string) { mu.Lock(); builds[k]++; mu.Unlock() }

	coord, cs := startCoordinator(t, CoordinatorConfig{
		Cache: streamcache.New(streamcache.Options{BuildHook: hook}),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		startWorker(t, ctx, cs.URL, streamcache.Options{BuildHook: hook})
	}

	got, err := coord.Run(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if have := marshalTables(t, got); !bytes.Equal(want, have) {
		t.Errorf("cluster tables differ from direct run:\nwant %d bytes\nhave %d bytes", len(want), len(have))
	}

	mu.Lock()
	defer mu.Unlock()
	for k, n := range builds {
		if n > 1 {
			t.Errorf("stream %s built %d times cluster-wide, want at most 1", k, n)
		}
	}
	if st := coord.Stats(); st.BundlesDone == 0 {
		t.Error("coordinator reports zero bundles done")
	}
}

// TestDeadWorkerLeaseRequeued: a bundle leased by a worker that dies
// without heartbeating is re-queued on lease expiry and the sweep still
// completes with correct output.
func TestDeadWorkerLeaseRequeued(t *testing.T) {
	req := testRequest([]string{"f1"})
	want := marshalTables(t, directTables(t, testRequest([]string{"f1"})))

	coord, cs := startCoordinator(t, CoordinatorConfig{
		Cache:    streamcache.New(streamcache.Options{}),
		LeaseTTL: 50 * time.Millisecond,
	})

	// Submit, then steal one lease as a worker that will never be heard
	// from again.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runOut struct {
		tables []*report.Table
		err    error
	}
	done := make(chan runOut, 1)
	go func() {
		tables, err := coord.Run(ctx, req, nil)
		done <- runOut{tables, err}
	}()
	var stolen Bundle
	for {
		lease, ok := coord.Lease("dead-worker")
		if ok {
			stolen = lease.Bundle
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Live workers join after the theft; once the stolen lease expires
	// the bundle goes to one of them.
	for i := 0; i < 2; i++ {
		startWorker(t, ctx, cs.URL, streamcache.Options{})
	}

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if have := marshalTables(t, out.tables); !bytes.Equal(want, have) {
		t.Error("tables after dead-worker recovery differ from direct run")
	}
	st := coord.Stats()
	if st.BundlesRequeued == 0 {
		t.Errorf("no bundles requeued (stolen %s)", stolen.ID)
	}
}

// TestCorruptPeerSnapshotFallsSoft: a peer that serves garbage for an
// advertised stream does not poison the run — the fetch is rejected at
// validation and the worker builds locally.
func TestCorruptPeerSnapshotFallsSoft(t *testing.T) {
	req := testRequest([]string{"f1"})
	want := marshalTables(t, directTables(t, testRequest([]string{"f1"})))

	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not a snapshot, not even close"))
	}))
	defer evil.Close()

	coord, cs := startCoordinator(t, CoordinatorConfig{
		Cache: streamcache.New(streamcache.Options{}),
	})
	// Pretend the evil peer holds every stream the request needs.
	norm := testRequest([]string{"f1"})
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	for _, w := range norm.WorkloadOrder() {
		ref, err := norm.StreamRefFor(w, norm.Seed)
		if err != nil {
			coord.mu.Unlock()
			t.Fatal(err)
		}
		coord.holders[ref.Hash] = map[string]bool{evil.URL: true}
	}
	coord.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := startWorker(t, ctx, cs.URL, streamcache.Options{})

	got, err := coord.Run(ctx, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if have := marshalTables(t, got); !bytes.Equal(want, have) {
		t.Error("tables after corrupt-peer recovery differ from direct run")
	}
	st := w.Stats()
	if st.FetchErrors == 0 {
		t.Error("worker never hit the corrupt peer (FetchErrors = 0); holder injection broken?")
	}
	if st.FetchOK != 0 {
		t.Errorf("worker claims %d successful fetches from a corrupt-only cluster", st.FetchOK)
	}
}

// TestCoordinatorRestartReadoption: a lease granted by one coordinator
// can be delivered to a fresh coordinator holding a resubmission of the
// same job, because bundle IDs derive deterministically from the
// request.
func TestCoordinatorRestartReadoption(t *testing.T) {
	req := testRequest([]string{"f1"})

	c1, _ := startCoordinator(t, CoordinatorConfig{Cache: streamcache.New(streamcache.Options{})})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c1.Run(ctx, req, nil)
	var lease LeaseResponse
	for {
		var ok bool
		lease, ok = c1.Lease("survivor")
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// The original coordinator "dies"; its successor re-admits the same
	// request and regenerates identical bundle IDs.
	c2, cs2 := startCoordinator(t, CoordinatorConfig{Cache: streamcache.New(streamcache.Options{})})
	go c2.Run(ctx, testRequest([]string{"f1"}), nil)
	for {
		if c2.Stats().BundlesPending > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	w, err := NewWorker(WorkerConfig{
		CoordinatorURL: cs2.URL,
		Cache:          streamcache.New(streamcache.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := w.ExecuteBundle(ctx, lease.Bundle)
	if res.Err != "" {
		t.Fatalf("execute: %s", res.Err)
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(cs2.URL+"/v1/cluster/bundles/"+lease.Bundle.ID+"/result",
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("successor rejected re-adopted result: status %d", resp.StatusCode)
	}
	if st := c2.Stats(); st.BundlesDone != 1 {
		t.Errorf("successor BundlesDone = %d, want 1", st.BundlesDone)
	}
}

// TestNormalizeDefaultsAndKey: omitted fields default, "all" expands,
// and omitted-vs-explicit defaults hash to the same key.
func TestNormalizeDefaultsAndKey(t *testing.T) {
	a := Request{Exps: []string{"f1"}}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.LLCMB != 4 || a.Ways != 16 || a.Seed != 1 || a.Scale != 1 || a.Strength != "full" {
		t.Errorf("defaults not applied: %+v", a)
	}
	b := Request{Exps: []string{"f1"}, LLCMB: 4, Ways: 16, Seed: 1, Scale: 1, Strength: "full"}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Error("omitted and explicit defaults hash differently")
	}

	all := Request{Exps: []string{"all"}}
	if err := all.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(all.Exps) != len(sim.ExperimentIDs()) {
		t.Errorf("all expanded to %d exps, want %d", len(all.Exps), len(sim.ExperimentIDs()))
	}

	for _, bad := range []Request{
		{},
		{Exps: []string{"nope"}},
		{Exps: []string{"f1"}, Scale: 2},
		{Exps: []string{"f1"}, Strength: "sorta"},
		{Exps: []string{"f1"}, Workloads: []string{"no-such-workload"}},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted", bad)
		}
	}
}

// TestBundleIDDeterminism: same inputs, same ID; any differing input,
// different ID.
func TestBundleIDDeterminism(t *testing.T) {
	base := BundleID("job", "f1", 0, "canneal")
	if base != BundleID("job", "f1", 0, "canneal") {
		t.Error("BundleID not deterministic")
	}
	for _, other := range []string{
		BundleID("job2", "f1", 0, "canneal"),
		BundleID("job", "f2", 0, "canneal"),
		BundleID("job", "f1", 1, "canneal"),
		BundleID("job", "f1", 0, "swaptions"),
	} {
		if other == base {
			t.Errorf("collision: %s", other)
		}
	}
}

func TestCheckProto(t *testing.T) {
	if err := CheckProto(ProtoVersion); err != nil {
		t.Fatal(err)
	}
	if err := CheckProto(ProtoVersion + 1); err == nil {
		t.Error("future protocol version accepted")
	}
}

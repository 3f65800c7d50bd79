package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
		Exps:    exps,
		Machine: &tinyMachine,
		Request: sim.Request{
			LLCMB:     float64(tinyMachine.LLCSize) / float64(cache.MB),
			Ways:      tinyMachine.LLCWays,
			Seed:      1,
			Scale:     0.02,
			Workloads: []string{"canneal", "streamcluster", "swaptions"},
		},
	}
}

// wantTables is the byte-compare reference: the test request over exps
// run the direct way a single daemon or the CLI runs it.
func wantTables(t *testing.T, exps []string) []byte {
	t.Helper()
	req := testRequest(exps)
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg, err := req.Config(req.MachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out []*report.Table
	if err := sim.RunExperiments(context.Background(), cfg, req.Exps, req.Options(), nil,
		func(tabs []*report.Table) error { out = append(out, tabs...); return nil }); err != nil {
		t.Fatal(err)
	}
	return marshalTables(t, out)
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
	want := wantTables(t, exps)

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
	want := wantTables(t, []string{"f1"})

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
		lease, ok := coord.lease("dead-worker")
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
	want := wantTables(t, []string{"f1"})

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
	for _, w := range norm.workloadOrder() {
		ref, err := norm.streamRefFor(w, norm.Seed)
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
		lease, ok = c1.lease("survivor")
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
	res := w.executeBundle(ctx, lease.Bundle)
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
	b := Request{Exps: []string{"f1"}, Request: sim.Request{LLCMB: 4, Ways: 16, Seed: 1, Scale: 1, Strength: "full"}}
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
		{Exps: []string{"f1"}, Request: sim.Request{Scale: 2}},
		{Exps: []string{"f1"}, Request: sim.Request{Strength: "sorta"}},
		{Exps: []string{"f1"}, Request: sim.Request{Workloads: []string{"no-such-workload"}}},
		{Exps: []string{"f5"}, Request: sim.Request{Policies: []string{"nope"}}},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted", bad)
		}
	}
}

// TestBundleIDDeterminism: same inputs, same ID; any differing input,
// different ID.
func TestBundleIDDeterminism(t *testing.T) {
	base := bundleID("job", "f1", 0, "canneal")
	if base != bundleID("job", "f1", 0, "canneal") {
		t.Error("bundleID not deterministic")
	}
	for _, other := range []string{
		bundleID("job2", "f1", 0, "canneal"),
		bundleID("job", "f2", 0, "canneal"),
		bundleID("job", "f1", 1, "canneal"),
		bundleID("job", "f1", 0, "swaptions"),
	} {
		if other == base {
			t.Errorf("collision: %s", other)
		}
	}
}

func TestCheckProto(t *testing.T) {
	if err := checkProto(ProtoVersion); err != nil {
		t.Fatal(err)
	}
	if err := checkProto(ProtoVersion + 1); err == nil {
		t.Error("future protocol version accepted")
	}
}

// forgotten reports whether c holds no job, bundle or build claim.
func forgotten(c *Coordinator) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs) == 0 && len(c.bundles) == 0 && len(c.building) == 0
}

// postResult posts res for bundle id over HTTP and returns the status.
func postResult(t *testing.T, base, id string, res BundleResult) int {
	t.Helper()
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/cluster/bundles/"+id+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCoordinatorForgetsFinishedJobs: a job that finishes or fails leaves
// no job, bundle or build claim behind, and a late duplicate result for
// one of its forgotten bundles is refused as unknown (404) without
// counting as a failed bundle.
func TestCoordinatorForgetsFinishedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	coord, cs := startCoordinator(t, CoordinatorConfig{Cache: streamcache.New(streamcache.Options{})})
	startWorker(t, ctx, cs.URL, streamcache.Options{})
	jobs := [][]string{{"f1"}, {"config"}, {"f1", "f3"}, {"f1"}}
	for _, exps := range jobs {
		if _, err := coord.Run(ctx, testRequest(exps), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !forgotten(coord) {
		t.Errorf("coordinator still holds state after %d finished jobs", len(jobs))
	}
	if st := coord.Stats(); st.Jobs != len(jobs) || st.JobsInflight != 0 {
		t.Errorf("Jobs = %d, JobsInflight = %d, want %d and 0", st.Jobs, st.JobsInflight, len(jobs))
	}
	done := testRequest([]string{"f1"})
	if err := done.Normalize(); err != nil {
		t.Fatal(err)
	}
	late := bundleID(done.Key(), "f1", 0, "canneal")
	if code := postResult(t, cs.URL, late, BundleResult{Proto: ProtoVersion, Worker: "late"}); code != http.StatusNotFound {
		t.Errorf("late result for a finished job's bundle: status %d, want 404", code)
	}

	// A failed job is forgotten too: every leased bundle fails until one
	// has used up its attempts.
	failing, fs := startCoordinator(t, CoordinatorConfig{})
	errc := make(chan error, 1)
	go func() {
		_, err := failing.Run(ctx, testRequest([]string{"f1"}), nil)
		errc <- err
	}()
	var lease LeaseResponse
	boom := BundleResult{Proto: ProtoVersion, Worker: "w", Err: "boom"}
	for attempts := map[string]int{}; attempts[lease.Bundle.ID] < maxAttempts; {
		for ok := false; !ok; {
			if lease, ok = failing.lease("w"); !ok {
				time.Sleep(time.Millisecond)
			}
		}
		attempts[lease.Bundle.ID]++
		if code := postResult(t, fs.URL, lease.Bundle.ID, boom); code != http.StatusOK {
			t.Fatalf("failing result: status %d, want 200", code)
		}
	}
	if err := <-errc; err == nil {
		t.Fatal("job with a failed bundle succeeded")
	}
	if !forgotten(failing) {
		t.Error("coordinator still holds state after a failed job")
	}
	failed := failing.Stats().BundlesFailed
	if code := postResult(t, fs.URL, lease.Bundle.ID, boom); code != http.StatusNotFound {
		t.Errorf("late duplicate for a failed job's bundle: status %d, want 404", code)
	}
	if st := failing.Stats(); st.BundlesFailed != failed {
		t.Errorf("late duplicate counted as a failed bundle: BundlesFailed %d -> %d", failed, st.BundlesFailed)
	}
}

// TestCancelledRunFreesJob: when the last waiter of an unfinished job
// cancels, the job fails and is forgotten, so no bundle stays queued
// for workers to run; while another waiter still waits, a cancelled
// identical submission leaves the job in place.
func TestCancelledRunFreesJob(t *testing.T) {
	coord, cs := startCoordinator(t, CoordinatorConfig{})
	drained := func(when string) {
		t.Helper()
		if st := coord.Stats(); st.BundlesPending != 0 || st.JobsInflight != 0 {
			t.Errorf("%s: %d bundles pending, %d jobs in flight; want 0 and 0", when, st.BundlesPending, st.JobsInflight)
		}
		body, err := json.Marshal(LeaseRequest{Proto: ProtoVersion, Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(cs.URL+"/v1/cluster/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("%s: lease status %d, want 204", when, resp.StatusCode)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := coord.Run(cancelled, testRequest([]string{"f1"}), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context: %v", err)
	}
	drained("after the only waiter cancelled")

	waiting, stop := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := coord.Run(waiting, testRequest([]string{"f1"}), nil)
		errc <- err
	}()
	for coord.Stats().JobsInflight == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := coord.Run(cancelled, testRequest([]string{"f1"}), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("joining Run under a cancelled context: %v", err)
	}
	if st := coord.Stats(); st.JobsInflight != 1 || st.BundlesPending == 0 || st.Jobs != 2 {
		t.Errorf("a cancelled join dropped the job another waiter holds: %+v", st)
	}
	stop()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting Run after cancel: %v", err)
	}
	drained("after the last waiter cancelled")
}

// TestControlBodyLimit: a worker-facing body one byte under the limit is
// decoded; one byte over is refused with 413 and changes no scheduler
// state.
func TestControlBodyLimit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord, cs := startCoordinator(t, CoordinatorConfig{})
	go coord.Run(ctx, testRequest([]string{"f1"}), nil)
	var lease LeaseResponse
	for ok := false; !ok; {
		if lease, ok = coord.lease("w"); !ok {
			time.Sleep(time.Millisecond)
		}
	}
	id := lease.Bundle.ID
	for _, c := range []struct {
		path  string
		body  any
		under int // status one byte under the limit
	}{
		{"/v1/cluster/lease", LeaseRequest{Proto: ProtoVersion, Worker: "w"}, http.StatusOK},
		{"/v1/cluster/bundles/" + id + "/heartbeat", HeartbeatRequest{Proto: ProtoVersion, Worker: "w"}, http.StatusOK},
		{"/v1/cluster/bundles/b-none/result", BundleResult{Proto: ProtoVersion, Worker: "w"}, http.StatusNotFound},
	} {
		obj, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{maxControlBody + 1, maxControlBody} {
			before := coord.Stats()
			// Leading whitespace pads the body, so the decoder must read
			// all of it before it reaches the object.
			body := append(bytes.Repeat([]byte(" "), size-len(obj)), obj...)
			resp, err := http.Post(cs.URL+c.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			want := c.under
			if size > maxControlBody {
				want = http.StatusRequestEntityTooLarge
				if after := coord.Stats(); after != before {
					t.Errorf("%s: refused body changed the scheduler: %+v -> %+v", c.path, before, after)
				}
			}
			if resp.StatusCode != want {
				t.Errorf("%s with a %d-byte body: status %d, want %d", c.path, size, resp.StatusCode, want)
			}
		}
	}
}

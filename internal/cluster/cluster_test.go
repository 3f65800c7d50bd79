package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// tinyMachine is the machine of the small jobs the protocol tests
// submit; the byte-identity tests run goldenRequest instead.
var tinyMachine = cache.Config{
	Cores:  8,
	L1Size: 2 * cache.KB, L1Ways: 2,
	L2Size: 8 * cache.KB, L2Ways: 4,
	LLCSize: 64 * cache.KB, LLCWays: 8,
}

// testRequest is the normalized tiny-machine job for exps, which names
// one experiment: a Run takes the normalized job the daemon admits.
func testRequest(exps []string) Request {
	if len(exps) != 1 {
		panic(fmt.Sprintf("testRequest: a job runs one experiment, got %q", exps))
	}
	req := Request{
		JobRequest: sim.JobRequest{Exp: exps[0], Request: sim.Request{
			LLCMB:     float64(tinyMachine.LLCSize) / float64(cache.MB),
			Ways:      tinyMachine.LLCWays,
			Seed:      1,
			Scale:     0.02,
			Workloads: []string{"canneal", "streamcluster", "swaptions"},
		}},
		Machine: &tinyMachine,
	}
	if err := req.Normalize(); err != nil {
		panic(err)
	}
	return req
}

// goldenPath is internal/sim's catalogue golden, the byte-compare
// reference: the SHA-256 of every table the direct path renders for
// goldenRequest, filed under "<normalized job JSON>#<table index>".
const goldenPath = "../sim/testdata/catalogue.golden"

// goldenRequest is the golden's seed-1 job for exp: the full suite at
// scale 0.02 on a 128 KB, 16-way LLC of the default machine.
func goldenRequest(exp string) Request {
	req := Request{JobRequest: sim.JobRequest{Exp: exp, Request: sim.Request{
		LLCMB: 0.125, Ways: 16, Seed: 1, Scale: 0.02,
	}}}
	if err := req.Normalize(); err != nil {
		panic(err)
	}
	return req
}

// checkGolden fails t unless tables are exactly the golden's tables for
// req: one entry per table, each hashing the table's text rendering.
func checkGolden(t *testing.T, req Request, tables []*report.Table) {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Hashes map[string]map[string]string `json:"hashes"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	job, err := json.Marshal(req.JobRequest)
	if err != nil {
		t.Fatal(err)
	}
	want := golden.Hashes[req.Exp]
	for i, tab := range tables {
		var b bytes.Buffer
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b.Bytes())
		key := fmt.Sprintf("%s#%d", job, i)
		if got := hex.EncodeToString(sum[:]); got != want[key] {
			t.Errorf("%s table %d hashes to %.12s, the golden has %.12q for %s", req.Exp, i, got, want[key], key)
		}
	}
	if len(tables) == 0 || want[fmt.Sprintf("%s#%d", job, len(tables))] != "" {
		t.Errorf("%s: the cluster returned %d tables, the golden has a different count", req.Exp, len(tables))
	}
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
	mux.HandleFunc("GET /v1/streams/{hash}", StreamHandler(w.cfg.Cache, nil))
	go w.Run(ctx)
	return w
}

// TestClusterE2EByteIdentical: three workers over real HTTP execute one
// job per experiment and the merged tables hash to the catalogue
// golden, which the direct path must match too.
// Every workload stream is built at most once cluster-wide: later
// bundles peer-fetch instead of rebuilding. No result body a worker posts
// comes within 8x of the control-body bound, so a row kind that grows
// fails here rather than with a 413 in production.
func TestClusterE2EByteIdentical(t *testing.T) {
	exps := sim.ExperimentIDs()
	if testing.Short() {
		exps = []string{"config", "f1", "f4", "f5", "c1", "m1", "a2", "a5"}
	}

	var mu sync.Mutex
	builds := map[string]int{}
	hook := func(k string) { mu.Lock(); builds[k]++; mu.Unlock() }

	coord := NewCoordinator(CoordinatorConfig{
		Cache: streamcache.New(streamcache.Options{BuildHook: hook}),
	})
	mux := http.NewServeMux()
	coord.Register(mux)
	largest := 0
	cs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			largest = max(largest, len(body))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		mux.ServeHTTP(w, r)
	}))
	defer cs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		startWorker(t, ctx, cs.URL, streamcache.Options{BuildHook: hook})
	}

	for _, exp := range exps {
		req := goldenRequest(exp)
		tables, err := coord.Run(ctx, req, nil)
		if err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		checkGolden(t, req, tables)
	}

	mu.Lock()
	defer mu.Unlock()
	for k, n := range builds {
		if n > 1 {
			t.Errorf("stream %s built %d times cluster-wide, want at most 1", k, n)
		}
	}
	t.Logf("largest result body: %d bytes", largest)
	if largest == 0 || largest > maxControlBody/8 {
		t.Errorf("largest result body is %d bytes, want within (0, %d]", largest, maxControlBody/8)
	}
	if st := coord.Stats(); st.BundlesDone == 0 {
		t.Error("coordinator reports zero bundles done")
	}
}

// TestDeadWorkerLeaseRequeued: a bundle leased by a worker that dies
// without heartbeating is re-queued on lease expiry and the sweep still
// completes with correct output.
func TestDeadWorkerLeaseRequeued(t *testing.T) {
	req := goldenRequest("f1")

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
	checkGolden(t, req, out.tables)
	st := coord.Stats()
	if st.BundlesRequeued == 0 {
		t.Errorf("no bundles requeued (stolen %s)", stolen.ID)
	}
}

// TestCorruptPeerSnapshotFallsSoft: a peer that serves garbage for an
// advertised stream does not poison the run — the fetch is rejected at
// validation and the worker builds locally.
func TestCorruptPeerSnapshotFallsSoft(t *testing.T) {
	req := goldenRequest("f1")

	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not a snapshot, not even close"))
	}))
	defer evil.Close()

	coord, cs := startCoordinator(t, CoordinatorConfig{
		Cache: streamcache.New(streamcache.Options{}),
	})
	// Pretend the evil peer holds every stream the request needs.
	coord.mu.Lock()
	for _, w := range req.workloadOrder() {
		ref, err := req.streamRefFor(w, req.Seed)
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
	checkGolden(t, req, got)
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

// TestNormalizeDefaultsAndKey: a cluster request normalizes and keys as
// the job it carries, so bundle IDs derive from the daemon's job key:
// omitted fields default, omitted-vs-explicit defaults hash to the same
// key, and the machine override stays out of the key.
func TestNormalizeDefaultsAndKey(t *testing.T) {
	a := Request{JobRequest: sim.JobRequest{Exp: "f1"}}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.LLCMB != 4 || a.Ways != 16 || a.Seed != 1 || a.Scale != 1 || a.Strength != "full" {
		t.Errorf("defaults not applied: %+v", a)
	}
	b := Request{JobRequest: sim.JobRequest{Exp: "f1", Request: sim.Request{LLCMB: 4, Ways: 16, Seed: 1, Scale: 1, Strength: "full"}}}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Error("omitted and explicit defaults hash differently")
	}
	b.Machine = &tinyMachine
	if a.Key() != b.Key() || a.Key() != a.JobRequest.Key() {
		t.Error("the machine override changed the job key")
	}

	for _, bad := range []Request{
		{},
		{JobRequest: sim.JobRequest{Exp: "all"}},
		{JobRequest: sim.JobRequest{Exp: "nope"}},
		{JobRequest: sim.JobRequest{Exp: "f1", Request: sim.Request{Scale: 2}}},
		{JobRequest: sim.JobRequest{Exp: "f1", Request: sim.Request{Strength: "sorta"}}},
		{JobRequest: sim.JobRequest{Exp: "f1", Request: sim.Request{Workloads: []string{"no-such-workload"}}}},
		{JobRequest: sim.JobRequest{Exp: "f5", Request: sim.Request{Policies: []string{"nope"}}}},
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
	// config's static tables run inline and admit no job.
	jobs := []string{"f1", "config", "f3", "f1"}
	for _, exp := range jobs {
		if _, err := coord.Run(ctx, testRequest([]string{exp}), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !forgotten(coord) {
		t.Errorf("coordinator still holds state after %d finished jobs", len(jobs))
	}
	if st := coord.Stats(); st.Jobs != len(jobs)-1 || st.JobsInflight != 0 {
		t.Errorf("Jobs = %d, JobsInflight = %d, want %d and 0", st.Jobs, st.JobsInflight, len(jobs)-1)
	}
	late := bundleID(testRequest([]string{"f1"}).Key(), "f1", 0, "canneal")
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

// TestCancelledRunFreesJob: cancelling a Run fails and forgets its
// unfinished job, so no bundle stays queued for workers to run. A Run for
// a job already in flight is refused and leaves that job in place: the
// daemon's Manager coalesces identical jobs and never issues one.
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
	drained("after a cancelled Run")

	waiting, stop := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := coord.Run(waiting, testRequest([]string{"f1"}), nil)
		errc <- err
	}()
	for coord.Stats().JobsInflight == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := coord.Run(context.Background(), testRequest([]string{"f1"}), nil); err == nil {
		t.Fatal("a second Run of a job in flight was accepted")
	}
	if st := coord.Stats(); st.JobsInflight != 1 || st.BundlesPending == 0 || st.Jobs != 2 {
		t.Errorf("a refused duplicate Run disturbed the job in flight: %+v", st)
	}
	stop()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting Run after cancel: %v", err)
	}
	drained("after the waiting Run cancelled")
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

// TestWorkerRefusesInvalidBundle: a leased bundle the daemon would never
// have admitted comes back as an error result instead of reaching the
// simulator: an f4 bundle with a 3 MB, 3-way LLC would panic in PLRU
// inside a replay goroutine and take the worker process down.
func TestWorkerRefusesInvalidBundle(t *testing.T) {
	w, err := NewWorker(WorkerConfig{
		CoordinatorURL: "http://127.0.0.1:1",
		Cache:          streamcache.New(streamcache.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	threeWays := testRequest([]string{"f4"})
	threeWays.LLCMB, threeWays.Ways = 3, 3
	badMachine := testRequest([]string{"f1"})
	badMachine.Machine = &cache.Config{Cores: 8}
	for _, c := range []struct {
		name string
		b    Bundle
	}{
		{"f4 at 3 MB and 3 ways", Bundle{ID: "b-ways", Spec: 0, Workload: "canneal", Request: threeWays}},
		{"unknown experiment", Bundle{ID: "b-exp", Spec: 0, Request: Request{JobRequest: sim.JobRequest{Exp: "f99"}}}},
		{"static experiment", Bundle{ID: "b-static", Spec: 0, Request: testRequest([]string{"config"})}},
		{"spec out of range", Bundle{ID: "b-spec", Spec: 99, Workload: "canneal", Request: testRequest([]string{"f1"})}},
		{"negative spec", Bundle{ID: "b-neg", Spec: -2, Workload: "canneal", Request: testRequest([]string{"f1"})}},
		{"the old whole-experiment spec", Bundle{ID: "b-old", Spec: -1, Request: testRequest([]string{"m1"})}},
		{"workload outside the job", Bundle{ID: "b-wl", Spec: 0, Workload: "lu", Request: testRequest([]string{"f1"})}},
		{"per-workload spec without a workload", Bundle{ID: "b-none", Spec: 0, Request: testRequest([]string{"f1"})}},
		{"whole-job spec with a workload", Bundle{ID: "b-whole", Spec: 0, Workload: "canneal", Request: testRequest([]string{"a5"})}},
		{"invalid machine", Bundle{ID: "b-machine", Spec: 0, Workload: "canneal", Request: badMachine}},
		{"a1's second spec, from before a1 was one spec", Bundle{ID: "b-a1", Spec: 1, Workload: "canneal", Request: testRequest([]string{"a1"})}},
	} {
		if res := w.executeBundle(context.Background(), c.b); res.Err == "" {
			t.Errorf("%s: bundle accepted", c.name)
		}
	}
	m1 := Bundle{ID: "b-m1", Spec: 0, Request: testRequest([]string{"m1"})}
	if err := m1.validate(); err != nil {
		t.Errorf("m1's whole-job bundle refused: %v", err)
	}
}

// TestWorkerPostsUnencodableRowsAsError: rows the JSON wire cannot carry
// (a NaN or ±Inf value) become an error result, and the coordinator
// counts that result as a failed attempt and re-queues the bundle.
func TestWorkerPostsUnencodableRowsAsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord, cs := startCoordinator(t, CoordinatorConfig{})
	go coord.Run(ctx, testRequest([]string{"f4"}), nil)
	var lease LeaseResponse
	for ok := false; !ok; {
		if lease, ok = coord.lease("w"); !ok {
			time.Sleep(time.Millisecond)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := BundleResult{Proto: ProtoVersion, Worker: "w"}
		res.setRows([][]sim.PolicyRow{{{Workload: lease.Bundle.Workload, Policy: "lru", MissesVsLRU: x}}}, nil)
		if res.Err == "" || res.Rows != nil {
			t.Fatalf("rows with %v: error %q, rows %s; want an error and no rows", x, res.Err, res.Rows)
		}
		before := coord.Stats()
		if code := postResult(t, cs.URL, lease.Bundle.ID, res); code != http.StatusOK {
			t.Fatalf("error result: status %d, want 200", code)
		}
		after := coord.Stats()
		if after.BundlesFailed != before.BundlesFailed+1 || after.BundlesDone != 0 || after.BundlesInflight != 0 {
			t.Errorf("error result with %v: %+v -> %+v; want one more failed bundle, re-queued", x, before, after)
		}
	}
}

// TestCoordinatorRefusesTableCount: a result whose rows do not hold one
// row array per table of its spec counts as a failed attempt and
// re-queues the bundle, rather than reaching the merge.
func TestCoordinatorRefusesTableCount(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord, cs := startCoordinator(t, CoordinatorConfig{})
	go coord.Run(ctx, testRequest([]string{"a2"}), nil)
	var lease LeaseResponse
	for ok := false; !ok; {
		if lease, ok = coord.lease("w"); !ok {
			time.Sleep(time.Millisecond)
		}
	}
	for _, rows := range []string{`[]`, `[[]]`, `[[],[],[],[],[]]`} {
		before := coord.Stats()
		res := BundleResult{Proto: ProtoVersion, Worker: "w", Rows: json.RawMessage(rows)}
		if code := postResult(t, cs.URL, lease.Bundle.ID, res); code != http.StatusOK {
			t.Fatalf("rows %s: status %d, want 200", rows, code)
		}
		after := coord.Stats()
		if after.BundlesFailed != before.BundlesFailed+1 || after.BundlesDone != 0 || after.BundlesInflight != 0 {
			t.Errorf("rows %s for a2's 4 tables: %+v -> %+v; want one more failed bundle, re-queued", rows, before, after)
		}
	}
}

// FuzzLeaseIntake holds the worker's lease intake to its contract:
// decoding a lease response as post does and validating its bundle, short
// of running it, never panics. An accepted bundle is a fixed point that
// names a runnable slice: validating it again changes nothing, its LLC is
// a geometry every catalogue policy runs at both the requested and the
// doubled size, and its suite configuration resolves.
func FuzzLeaseIntake(f *testing.F) {
	for _, b := range []Bundle{
		{ID: "b-1", Spec: 0, Workload: "canneal", Request: testRequest([]string{"f1"})},
		{ID: "b-2", Spec: 0, Request: testRequest([]string{"a5"})},
		{ID: "b-4", Spec: 0, Request: testRequest([]string{"m1"})},
		{ID: "b-5", Spec: 0, Request: testRequest([]string{"f1"})},
		{ID: "b-6", Spec: 0, Workload: "canneal", Request: testRequest([]string{"m1"})},
		{ID: "b-7", Spec: -1, Request: testRequest([]string{"m1"})},
		{ID: "b-3", Spec: 1, Workload: "swaptions", Request: testRequest([]string{"f5"}),
			Streams: []StreamRef{{Workload: "swaptions", Seed: 1, Hash: "00", Sources: []string{"http://peer"}}}},
		{ID: "b-8", Spec: 1, Workload: "canneal", Request: testRequest([]string{"a1"})},
	} {
		raw, err := json.Marshal(LeaseResponse{Bundle: b, TTLMillis: 15000})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, body := range []string{
		`{"bundle":{"id":"b","spec":0,"workload":"canneal","request":{"exp":"f4","llc_mb":3,"ways":3}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","spec":0,"workload":"canneal","request":{"exp":"f4","ways":128}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","spec":-1,"request":{"exp":"all"}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","spec":-1,"request":{"exp":"m1","machine":{"Cores":0}}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","spec":0,"workload":"canneal","request":{"exp":"f1","exps":["f1"]}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","spec":7,"workload":"Canneal","request":{"exp":"f5","workloads":["Canneal"],"policies":["LRU"]}}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var lease LeaseResponse
		if decodeJSON(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), maxControlBody), &lease) != nil {
			return
		}
		b := lease.Bundle
		if b.validate() != nil {
			return
		}
		once, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.validate(); err != nil {
			t.Fatalf("validated bundle %s is rejected: %v", once, err)
		}
		if twice, _ := json.Marshal(b); !bytes.Equal(once, twice) {
			t.Fatalf("validating is not idempotent:\n once %s\ntwice %s", once, twice)
		}
		o := b.Request.Options()
		for _, size := range []int{o.LLCSize, 2 * o.LLCSize} {
			if _, err := cache.Geometry(size, o.LLCWays); err != nil {
				t.Errorf("accepted %g MB at %d ways: %d bytes is no geometry: %v", b.Request.LLCMB, b.Request.Ways, size, err)
			}
		}
		if _, err := b.Request.Config(b.Request.machineConfig()); err != nil {
			t.Errorf("accepted bundle %s has no suite configuration: %v", once, err)
		}
	})
}

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
	"sync/atomic"
	"testing"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// testRequest is the normalized small job for exps, which names one
// experiment: three workloads at the golden's knobs (scale 0.02, a
// 128 KB, 16-way LLC of the default machine). A Run takes the normalized
// job the daemon admits; the byte-identity tests run goldenRequest's full
// suite instead.
func testRequest(exps []string) sim.JobRequest {
	if len(exps) != 1 {
		panic(fmt.Sprintf("testRequest: a job runs one experiment, got %q", exps))
	}
	req := sim.JobRequest{Exp: exps[0], Request: sim.Request{
		LLCMB:     0.125,
		Ways:      16,
		Seed:      1,
		Scale:     0.02,
		Workloads: []string{"canneal", "streamcluster", "swaptions"},
	}}
	if err := req.Normalize(); err != nil {
		panic(err)
	}
	return req
}

// goldenPath is internal/sim's catalogue golden, the byte-compare
// reference: the SHA-256 of every table sim.RunExperiments renders for
// goldenRequest, filed under "<normalized job JSON>#<table index>".
const goldenPath = "../sim/testdata/catalogue.golden"

// goldenRequest is the golden's seed-1 job for exp: the full suite at
// scale 0.02 on a 128 KB, 16-way LLC of the default machine.
func goldenRequest(exp string) sim.JobRequest {
	req := sim.JobRequest{Exp: exp, Request: sim.Request{
		LLCMB: 0.125, Ways: 16, Seed: 1, Scale: 0.02,
	}}
	if err := req.Normalize(); err != nil {
		panic(err)
	}
	return req
}

// checkGolden fails t unless tables are exactly the golden's tables for
// req: one entry per table, each hashing the table's text rendering.
func checkGolden(t *testing.T, req sim.JobRequest, tables []*report.Table) {
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
	job, err := json.Marshal(req)
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

// leaseNext leases coord's next runnable bundle to worker, waiting until
// there is one.
func leaseNext(coord *Coordinator, worker string) leaseResponse {
	for {
		if lease, ok := coord.lease(worker); ok {
			return lease
		}
		time.Sleep(time.Millisecond)
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
// golden, which sim.RunExperiments must match too.
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
	stolen := leaseNext(coord, "dead-worker").Bundle

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
	plan, _ := sim.PlanJob(req)
	coord.mu.Lock()
	for _, cell := range plan.Cells {
		for _, m := range plan.Reads(cell) {
			coord.holders[refFor(m, req.Seed).Hash] = map[string]bool{evil.URL: true}
		}
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

// TestWorkerFetchesOnlyHeldStreams: a worker asks the coordinator for a
// stream only when the lease says the coordinator holds it. Against a
// coordinator that holds nothing, a one-worker, two-workload f5 job
// builds both streams without a fetch; a coordinator that holds both
// serves them, though it advertises no URL of its own, and the worker
// builds nothing.
func TestWorkerFetchesOnlyHeldStreams(t *testing.T) {
	req := testRequest([]string{"f5"})
	req.Workloads = []string{"canneal", "swaptions"}
	for _, held := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		coordCache := streamcache.New(streamcache.Options{})
		if held {
			plan, _ := sim.PlanJob(req)
			for _, cell := range plan.Cells {
				for _, m := range plan.Reads(cell) {
					if _, err := coordCache.Stream(ctx, m, cache.DefaultConfig(), req.Seed); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		coord, cs := startCoordinator(t, CoordinatorConfig{Cache: coordCache})
		var builds atomic.Int64
		w := startWorker(t, ctx, cs.URL, streamcache.Options{BuildHook: func(string) { builds.Add(1) }})
		if _, err := coord.Run(ctx, req, nil); err != nil {
			t.Fatal(err)
		}
		st := w.Stats()
		got := [4]uint64{st.FetchTotal, st.FetchOK, st.FetchErrors, uint64(builds.Load())}
		want := [4]uint64{0, 0, 0, 2} // fetches, fetched, failed fetches, builds
		if held {
			want = [4]uint64{2, 2, 0, 0}
		}
		if got != want {
			t.Errorf("coordinator holds the streams: %v; worker fetched %d, %d ok, %d failed, built %d; want %v",
				held, got[0], got[1], got[2], got[3], want)
		}
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
	lease := leaseNext(c1, "survivor")

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

// TestNormalizeDefaultsAndKey: the job a bundle carries normalizes and
// keys as the daemon's job, so bundle IDs derive from the daemon's job
// key: omitted fields default, and omitted-vs-explicit defaults hash to
// the same key and the same bundle IDs.
func TestNormalizeDefaultsAndKey(t *testing.T) {
	a := sim.JobRequest{Exp: "f1"}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.LLCMB != 4 || a.Ways != 16 || a.Seed != 1 || a.Scale != 1 || a.Strength != "full" {
		t.Errorf("defaults not applied: %+v", a)
	}
	b := sim.JobRequest{Exp: "f1", Request: sim.Request{LLCMB: 4, Ways: 16, Seed: 1, Scale: 1, Strength: "full"}}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() || bundleID(a.Key(), a.Exp, "canneal") != bundleID(b.Key(), b.Exp, "canneal") {
		t.Error("omitted and explicit defaults hash differently")
	}

	for _, bad := range []sim.JobRequest{
		{},
		{Exp: "all"},
		{Exp: "nope"},
		{Exp: "f1", Request: sim.Request{Scale: 2}},
		{Exp: "f1", Request: sim.Request{Strength: "sorta"}},
		{Exp: "f1", Request: sim.Request{Workloads: []string{"no-such-workload"}}},
		{Exp: "f5", Request: sim.Request{Policies: []string{"nope"}}},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted", bad)
		}
	}
}

// TestBundleIDDeterminism: same inputs, same ID; any differing input,
// different ID.
func TestBundleIDDeterminism(t *testing.T) {
	base := bundleID("job", "f1", "canneal")
	if base != bundleID("job", "f1", "canneal") {
		t.Error("bundleID not deterministic")
	}
	for _, other := range []string{
		bundleID("job2", "f1", "canneal"),
		bundleID("job", "f2", "canneal"),
		bundleID("job", "f1", "swaptions"),
		bundleID("job", "f1", ""),
	} {
		if other == base {
			t.Errorf("collision: %s", other)
		}
	}
}

// TestCheckProto: the current protocol version passes without an
// answer; another one is answered 400 with both versions named.
func TestCheckProto(t *testing.T) {
	rec := httptest.NewRecorder()
	if !checkProto(rec, protoVersion) || rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("protocol %d refused: %d %s", protoVersion, rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	if checkProto(rec, protoVersion-1) || rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), fmt.Sprintf("version %d (this node speaks: %d)", protoVersion-1, protoVersion)) {
		t.Errorf("protocol %d: %d %s, want a 400 naming both versions", protoVersion-1, rec.Code, rec.Body)
	}
}

// forgotten reports whether c holds no job, bundle or build claim.
func forgotten(c *Coordinator) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs) == 0 && len(c.bundles) == 0 && len(c.building) == 0
}

// postResult posts res for bundle id over HTTP and returns the status.
func postResult(t *testing.T, base, id string, res bundleResult) int {
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
	late := bundleID(testRequest([]string{"f1"}).Key(), "f1", "canneal")
	if code := postResult(t, cs.URL, late, bundleResult{Proto: protoVersion, Worker: "late"}); code != http.StatusNotFound {
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
	var lease leaseResponse
	boom := bundleResult{Proto: protoVersion, Worker: "w", Err: "boom"}
	for attempts := map[string]int{}; attempts[lease.Bundle.ID] < maxAttempts; {
		lease = leaseNext(failing, "w")
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
		body, err := json.Marshal(workerRequest{Proto: protoVersion, Worker: "w"})
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
	id := leaseNext(coord, "w").Bundle.ID
	for _, c := range []struct {
		path  string
		body  any
		under int // status one byte under the limit
	}{
		{"/v1/cluster/lease", workerRequest{Proto: protoVersion, Worker: "w"}, http.StatusOK},
		{"/v1/cluster/bundles/" + id + "/heartbeat", workerRequest{Proto: protoVersion, Worker: "w"}, http.StatusOK},
		{"/v1/cluster/bundles/b-none/result", bundleResult{Proto: protoVersion, Worker: "w"}, http.StatusNotFound},
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
	for _, c := range []struct {
		name string
		b    bundle
	}{
		{"f4 at 3 MB and 3 ways", bundle{ID: "b-ways", Workload: "canneal", Request: threeWays}},
		{"unknown experiment", bundle{ID: "b-exp", Request: sim.JobRequest{Exp: "f99"}}},
		{"static experiment", bundle{ID: "b-static", Request: testRequest([]string{"config"})}},
		{"workload outside the job", bundle{ID: "b-wl", Workload: "lu", Request: testRequest([]string{"f1"})}},
		{"per-workload spec without a workload", bundle{ID: "b-none", Request: testRequest([]string{"f1"})}},
		{"whole-job spec with a workload", bundle{ID: "b-whole", Workload: "canneal", Request: testRequest([]string{"a5"})}},
	} {
		if res := w.executeBundle(context.Background(), c.b); res.Err == "" {
			t.Errorf("%s: bundle accepted", c.name)
		}
	}
	m1 := bundle{ID: "b-m1", Request: testRequest([]string{"m1"})}
	if _, err := m1.validate(); err != nil {
		t.Errorf("m1's whole-job bundle refused: %v", err)
	}
	// A version-5 coordinator named a cell by a spec index too; the
	// strict lease decode refuses the field.
	v5 := `{"bundle":{"id":"b","spec":0,"workload":"canneal","request":{"exp":"f1"}},"ttl_ms":1}`
	var lease leaseResponse
	if err := decodeJSON(strings.NewReader(v5), &lease); err == nil {
		t.Errorf("a version-5 lease carrying a spec index decoded: %+v", lease)
	}
}

// TestWorkerSharesLanesAcrossBundles: a worker's bundles share one lane
// memo, so an f8 bundle takes the oracle + LRU cell and its base from the
// f5 bundle of its workload and replays only its two driven lanes, and
// both bundles' rows equal those of a worker without a memo.
func TestWorkerSharesLanesAcrossBundles(t *testing.T) {
	newWorker := func() *Worker {
		w, err := NewWorker(WorkerConfig{CoordinatorURL: "http://127.0.0.1:1", Cache: streamcache.New(streamcache.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w, bare := newWorker(), newWorker()
	bare.lanes = nil
	for _, exp := range []string{"f5", "f8"} {
		b := bundle{ID: "b-" + exp, Workload: "canneal", Request: testRequest([]string{exp})}
		got, want := w.executeBundle(context.Background(), b), bare.executeBundle(context.Background(), b)
		if got.Err != "" || want.Err != "" {
			t.Fatalf("%s: errors %q and %q", exp, got.Err, want.Err)
		}
		if !bytes.Equal(got.Rows, want.Rows) {
			t.Errorf("%s rows with the memo:\n%s\nwithout:\n%s", exp, got.Rows, want.Rows)
		}
	}
	// f5: two sizes' bases and oracle lanes miss; f8: the 1× base and
	// oracle lane hit, the addr and pc driven lanes miss.
	if hits, misses := w.lanes.Counts(); hits != 2 || misses != 6 {
		t.Errorf("worker memo counted %d hits and %d misses, want 2 and 6", hits, misses)
	}
}

// TestWorkerPostsUnencodableRowsAsError: rows the JSON wire cannot carry
// (a NaN or ±Inf value) become an error result, and the coordinator
// counts that result from the lease holder as a failed attempt and
// re-queues the bundle. The same error posted again, once the worker no
// longer holds the lease, counts nothing.
func TestWorkerPostsUnencodableRowsAsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord, cs := startCoordinator(t, CoordinatorConfig{})
	go coord.Run(ctx, testRequest([]string{"f4"}), nil)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		lease := leaseNext(coord, "w")
		res := bundleResult{Proto: protoVersion, Worker: "w"}
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
		if code := postResult(t, cs.URL, lease.Bundle.ID, res); code != http.StatusOK {
			t.Fatalf("stale error result: status %d, want 200", code)
		}
		if stale := coord.Stats(); stale != after {
			t.Errorf("error result with %v from a worker without the lease: %+v -> %+v; want no change", x, after, stale)
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
	for _, rows := range []string{`[]`, `[[]]`, `[[],[],[],[],[]]`} {
		lease := leaseNext(coord, "w")
		before := coord.Stats()
		res := bundleResult{Proto: protoVersion, Worker: "w", Rows: json.RawMessage(rows)}
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
	for _, b := range []bundle{
		{ID: "b-1", Workload: "canneal", Request: testRequest([]string{"f1"})},
		{ID: "b-2", Request: testRequest([]string{"a5"})},
		{ID: "b-4", Request: testRequest([]string{"m1"})},
		{ID: "b-5", Request: testRequest([]string{"f1"})},
		{ID: "b-6", Workload: "canneal", Request: testRequest([]string{"m1"})},
		{ID: "b-7", Workload: "canneal", Request: testRequest([]string{"a5"})},
		{ID: "b-3", Workload: "swaptions", Request: testRequest([]string{"f5"}),
			Streams: []streamRef{{Workload: "swaptions", Seed: 1, Hash: "00", Sources: []string{"http://peer"}, Coordinator: true}}},
		{ID: "b-8", Workload: "canneal", Request: testRequest([]string{"a1"})},
	} {
		raw, err := json.Marshal(leaseResponse{Bundle: b, TTLMillis: 15000})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, body := range []string{
		`{"bundle":{"id":"b","workload":"canneal","request":{"exp":"f4","llc_mb":3,"ways":3}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","workload":"canneal","request":{"exp":"f4","ways":128}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","request":{"exp":"all"}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","request":{"exp":"m1","machine":{"Cores":0}}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","workload":"canneal","request":{"exp":"f1","exps":["f1"]}},"ttl_ms":1}`,
		`{"bundle":{"id":"b","spec":0,"workload":"Canneal","request":{"exp":"f5","workloads":["Canneal"],"policies":["LRU"]}}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var lease leaseResponse
		if decodeJSON(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(data)), maxControlBody), &lease) != nil {
			return
		}
		b := lease.Bundle
		if _, err := b.validate(); err != nil {
			return
		}
		once, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.validate(); err != nil {
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
		if _, err := b.Request.Config(cache.DefaultConfig()); err != nil {
			t.Errorf("accepted bundle %s has no suite configuration: %v", once, err)
		}
	})
}

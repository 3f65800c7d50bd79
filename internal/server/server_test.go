package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/cluster"
	"sharellc/internal/core"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// fastReq is the canonical small request used across tests: scale 0.02
// with two workloads keeps a full f1 run around a second.
func fastReq() sim.JobRequest {
	return sim.JobRequest{Exp: "f1", Request: sim.Request{Seed: 1, Scale: 0.02, Workloads: []string{"canneal", "swaptions"}}}
}

func postJob(t *testing.T, ts *httptest.Server, req sim.JobRequest) (jobView, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitDone polls until the job reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string, within time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.State.terminal() {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v", id, within)
	return jobView{}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(NewManager(cfg), nil)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.m.Shutdown(ctx)
	})
	return s, ts
}

// TestEndToEndMatchesDirectRun is the acceptance criterion: the daemon's
// JSON tables for f1 must be bit-identical to running the experiment
// directly through the shared index (which is what sharesim -json does).
func TestEndToEndMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	v, code := postJob(t, ts, fastReq())
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", code)
	}
	v = waitDone(t, ts, v.ID, 2*time.Minute)
	if v.State != stateDone || v.Cached {
		t.Fatalf("job state = %s cached=%v, want done/false (err %q)", v.State, v.Cached, v.Error)
	}

	// Direct run through the same index, same knobs as the normalized request.
	exp, err := sim.ExperimentByID("f1")
	if err != nil {
		t.Fatal(err)
	}
	models, err := sim.ModelsByName([]string{"canneal", "swaptions"})
	if err != nil {
		t.Fatal(err)
	}
	suite, err := sim.NewSuite(sim.Config{Machine: cache.DefaultConfig(), Seed: 1, Scale: 0.02, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.Run(suite, sim.ExpOptions{
		LLCSize: 4 * cache.MB, LLCWays: 16, Prot: core.Options{Strength: core.Full},
	})
	if err != nil {
		t.Fatal(err)
	}

	gotJSON, _ := json.Marshal(v.Tables)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("daemon tables differ from direct run:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestCacheHitServedWithoutRun: a repeated identical POST returns done
// immediately from the cache, and /metrics records the hit.
func TestCacheHitServedWithoutRun(t *testing.T) {
	var runs int
	var mu sync.Mutex
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		return []*report.Table{{Title: "stub", Headers: []string{"h"}, Rows: [][]string{{"x"}}}}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})

	v1, code := postJob(t, ts, fastReq())
	if code != http.StatusAccepted {
		t.Fatalf("first POST status = %d", code)
	}
	waitDone(t, ts, v1.ID, 10*time.Second)

	v2, code := postJob(t, ts, fastReq())
	if code != http.StatusOK {
		t.Errorf("cached POST status = %d, want 200", code)
	}
	if v2.State != stateDone || !v2.Cached {
		t.Errorf("cached job state=%s cached=%v, want done/true", v2.State, v2.Cached)
	}
	if len(v2.Tables) != 1 || v2.Tables[0].Title != "stub" {
		t.Errorf("cached tables wrong: %+v", v2.Tables)
	}
	mu.Lock()
	if runs != 1 {
		t.Errorf("runner ran %d times, want 1", runs)
	}
	mu.Unlock()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metricsText, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"sharesimd_cache_hits_total 1",
		"sharesimd_cache_misses_total 1",
		`sharesimd_jobs_total{state="done"} 1`,
		`sharesimd_job_duration_seconds_count{exp="f1"} 1`,
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsText)
		}
	}
}

// TestRePostOnDoneIsCacheHit: a POST sent the moment a job's done event
// arrives is answered from the result cache (200, cached, a new job),
// never coalesced onto the finished job: finalize caches the tables and
// releases the coalescing slot before it publishes done. The test
// spins on its event subscription and serves the POST in-process, so
// no network round trip hides a window between the two.
func TestRePostOnDoneIsCacheHit(t *testing.T) {
	release := make(chan struct{})
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		<-release
		return []*report.Table{{Title: "stub", Headers: []string{"h"}, Rows: [][]string{{"x"}}}}, nil
	}
	s, _ := newTestServer(t, Config{Workers: 1, Runner: runner})
	body, err := json.Marshal(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	post := func() (jobView, int) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		var v jobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("POST response %q: %v", rec.Body, err)
		}
		return v, rec.Code
	}
	v1, code := post()
	if code != http.StatusAccepted {
		t.Fatalf("first POST status = %d", code)
	}
	job, ok := s.m.Get(v1.ID)
	if !ok {
		t.Fatalf("job %s not found", v1.ID)
	}
	_, live, unsub := job.subscribe()
	defer unsub()
	close(release)
	for done := false; !done; {
		select {
		case ev := <-live:
			done = ev.Type == "state" && ev.State.terminal()
		default: // spin: react to the event as soon as it is sent
		}
	}
	m := s.m
	m.mu.Lock()
	_, active := m.active[job.Key]
	cached := m.cache.Contains(job.Key)
	m.mu.Unlock()
	if active || !cached {
		t.Fatalf("done published with the job still coalescing (%v) or its tables not cached (%v)", active, !cached)
	}
	v2, code := post()
	if code != http.StatusOK || !v2.Cached || v2.ID == v1.ID || v2.State != stateDone {
		t.Fatalf("POST on done: status %d, job %s (first %s), state %s, cached %v; want 200, a new done job served from the cache",
			code, v2.ID, v1.ID, v2.State, v2.Cached)
	}
}

// TestConcurrentIdenticalPostsCoalesce: two identical POSTs racing while
// the runner blocks must share one job and one run.
func TestConcurrentIdenticalPostsCoalesce(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var runs int
	var mu sync.Mutex
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		close(started)
		<-release
		return []*report.Table{{Title: "stub"}}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 2, Runner: runner})

	v1, code := postJob(t, ts, fastReq())
	if code != http.StatusAccepted {
		t.Fatalf("first POST status = %d", code)
	}
	<-started // runner is now holding the job in running state

	v2, code := postJob(t, ts, fastReq())
	if code != http.StatusOK {
		t.Errorf("coalesced POST status = %d, want 200", code)
	}
	if v2.ID != v1.ID {
		t.Errorf("coalesced POST got job %s, want %s", v2.ID, v1.ID)
	}
	close(release)
	waitDone(t, ts, v1.ID, 10*time.Second)

	mu.Lock()
	if runs != 1 {
		t.Errorf("runner ran %d times, want 1", runs)
	}
	mu.Unlock()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metricsText, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(metricsText), "sharesimd_jobs_coalesced_total 1") {
		t.Errorf("metrics missing coalesced counter:\n%s", metricsText)
	}
}

// TestCoordinatorModeAdmitsOnce: in coordinator mode the Manager is the
// only job layer. Two identical POSTs coalesce onto one daemon job and
// one coordinator job, its tables equal the in-process runner's, and a
// repeated POST is served from the daemon's result cache.
func TestCoordinatorModeAdmitsOnce(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{})
	_, ts := newTestServer(t, Config{Workers: 1, Coordinator: coord})

	// No worker polls yet, so the first job is still in flight when the
	// second POST arrives.
	v1, code := postJob(t, ts, fastReq())
	if code != http.StatusAccepted {
		t.Fatalf("first POST status = %d, want 202", code)
	}
	v2, code := postJob(t, ts, fastReq())
	if code != http.StatusOK || v2.ID != v1.ID {
		t.Fatalf("second POST: status %d, job %s; want 200 and job %s", code, v2.ID, v1.ID)
	}

	ctx, cancel := context.WithCancel(context.Background())
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		CoordinatorURL: ts.URL,
		Cache:          streamcache.New(streamcache.Options{}),
		Poll:           10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() { w.Run(ctx); close(stopped) }()
	defer func() { cancel(); <-stopped }()

	v := waitDone(t, ts, v1.ID, 2*time.Minute)
	if v.State != stateDone {
		t.Fatalf("job state = %s (err %q), want done", v.State, v.Error)
	}
	if st := coord.Stats(); st.Jobs != 1 || st.JobsInflight != 0 {
		t.Errorf("coordinator Jobs = %d, JobsInflight = %d; want 1 and 0", st.Jobs, st.JobsInflight)
	}
	req := fastReq()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	want, err := defaultRunner(nil)(ctx, req, func(int, int, string) {})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(v.Tables)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("coordinator-mode tables differ from the in-process runner's:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	v3, code := postJob(t, ts, fastReq())
	if code != http.StatusOK || !v3.Cached || v3.State != stateDone {
		t.Errorf("repeated POST: status %d, state %s, cached %v; want 200, done, cached", code, v3.State, v3.Cached)
	}
	if st := coord.Stats(); st.Jobs != 1 {
		t.Errorf("a cached repeat reached the coordinator: Jobs = %d, want 1", st.Jobs)
	}
}

// TestCancelRunningJob: DELETE on a running job cancels its context and
// the job lands in cancelled promptly, freeing the worker.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 4) // one signal per run; runner is shared by both jobs below
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})

	v, _ := postJob(t, ts, fastReq())
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}

	start := time.Now()
	final := waitDone(t, ts, v.ID, 5*time.Second)
	if final.State != stateCancelled {
		t.Errorf("state = %s, want cancelled", final.State)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}

	// The worker must be free again: a different request should run.
	done := make(chan struct{})
	go func() {
		req2 := fastReq()
		req2.Seed = 99 // different key
		v2, _ := postJob(t, ts, req2)
		// This runner blocks on ctx.Done, so cancel it too.
		httpReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v2.ID, nil)
		r2, err := http.DefaultClient.Do(httpReq)
		if err == nil {
			r2.Body.Close()
		}
		waitDone(t, ts, v2.ID, 5*time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker not freed after cancellation")
	}
}

// TestCancelQueuedJob: a job still in the queue cancels immediately and
// never runs.
func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	var mu sync.Mutex
	ran := map[string]bool{}
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		mu.Lock()
		ran[req.Exp] = true
		mu.Unlock()
		<-block
		return []*report.Table{{}}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})
	defer close(block)

	v1, _ := postJob(t, ts, fastReq()) // occupies the only worker
	q := fastReq()
	q.Exp = "f3" // different key, queues behind v1
	v2, code := postJob(t, ts, q)
	if code != http.StatusAccepted {
		t.Fatalf("queued POST status = %d", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v2.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := waitDone(t, ts, v2.ID, 5*time.Second)
	if final.State != stateCancelled {
		t.Errorf("queued job state = %s, want cancelled", final.State)
	}
	mu.Lock()
	if ran["f3"] {
		t.Error("cancelled queued job still ran")
	}
	mu.Unlock()
	_ = v1
}

// TestBadRequestsRejected: validation failures are 400s with messages.
func TestBadRequestsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		body string
		want string
	}{
		{`{"exp":"f6"}`, "unknown experiment"},
		{`{"exp":"f1","workloads":["doom"]}`, "doom"},
		{`{"exp":"all"}`, "one job per experiment"},
		{`{"exp":"f1","scale":7}`, "scale"},
		{`{}`, "exp"},
		{`{"exp":"f1","bogus":1}`, "bogus"},
		{`{"exp":"f5","policies":["nope"]}`, "nope"},
		// The cluster-only fields stay out of the job API.
		{`{"exp":"f1","machine":{"Cores":8}}`, "machine"},
		{`{"exp":"f1","exps":["f1"]}`, "exps"},
		// LLC geometries a catalogue policy cannot run, or too large to
		// allocate: each used to be accepted and, for the first two, to
		// panic a replay worker.
		{`{"exp":"f4","llc_mb":3,"ways":3}`, "ways"},
		{`{"exp":"f4","llc_mb":8,"ways":128}`, "ways"},
		{`{"exp":"f1","llc_mb":1048576}`, "llc_mb"},
		{`{"exp":"f1","ways":12}`, "ways"},
		{`{"exp":"f1","llc_mb":3}`, "set count"},
		{`{"exp":"f1","llc_mb":0.1}`, "block size"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s status = %d, want 400", c.body, resp.StatusCode)
		}
		if !strings.Contains(string(b), c.want) {
			t.Errorf("POST %s error %q missing %q", c.body, b, c.want)
		}
	}
}

// TestQueueFullReturns503: submissions beyond workers+queue capacity are
// rejected with 503 and counted.
func TestQueueFullReturns503(t *testing.T) {
	block := make(chan struct{})
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		<-block
		return []*report.Table{{}}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Runner: runner})
	defer close(block)

	ids := []string{"f1", "f2", "f3", "f4"}
	var got []int
	for _, id := range ids {
		r := fastReq()
		r.Exp = id
		_, code := postJob(t, ts, r)
		got = append(got, code)
	}
	// Worker takes one, queue holds one; with dequeue timing one extra
	// may sneak in, but the last must be rejected.
	if got[len(got)-1] != http.StatusServiceUnavailable {
		t.Errorf("statuses = %v, want final 503", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metricsText, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(metricsText), "sharesimd_jobs_rejected_total") ||
		strings.Contains(string(metricsText), "sharesimd_jobs_rejected_total 0\n") {
		t.Errorf("metrics missing rejected count:\n%s", metricsText)
	}
}

// TestEventsStream: the SSE endpoint replays history and ends with a
// terminal state event; progress events carry done/total.
func TestEventsStream(t *testing.T) {
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		progress(1, 2, "canneal")
		progress(2, 2, "swaptions")
		return []*report.Table{{Title: "stub"}}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})

	v, _ := postJob(t, ts, fastReq())
	waitDone(t, ts, v.ID, 10*time.Second)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body) // stream closes itself on terminal state
	text := string(body)
	for _, want := range []string{
		`"state":"queued"`, `"state":"running"`,
		`"done":1`, `"done":2`, `"total":2`, `"label":"canneal"`,
		`"state":"done"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("event stream missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "event: progress") || !strings.Contains(text, "event: state") {
		t.Errorf("stream missing event types:\n%s", text)
	}
}

// TestShutdownDrains: Shutdown waits for a running job, and a generous
// deadline lets it finish as done rather than cancelled.
func TestShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		close(started)
		select {
		case <-release:
			return []*report.Table{{Title: "finished"}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := New(NewManager(Config{Workers: 1, Runner: runner}), nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, _ := postJob(t, ts, fastReq())
	<-started

	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.m.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	job, ok := s.m.Get(v.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	state, _, _, _, _, _, _ := job.snapshot()
	if state != stateDone {
		t.Errorf("drained job state = %s, want done", state)
	}

	// Draining server refuses new work with 503.
	_, code := postJob(t, ts, fastReq())
	if code != http.StatusServiceUnavailable {
		t.Errorf("POST while draining status = %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestShutdownDeadlineCancelsRunning: when the drain deadline passes,
// running jobs are yanked via the base context and the drain reports it.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	started := make(chan struct{})
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		close(started)
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	}
	s := New(NewManager(Config{Workers: 1, Runner: runner}), nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	v, _ := postJob(t, ts, fastReq())
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := s.m.Shutdown(ctx)
	if err == nil {
		t.Fatal("drain with stuck job reported success")
	}
	job, _ := s.m.Get(v.ID)
	state, _, _, _, _, _, _ := job.snapshot()
	if state != stateCancelled {
		t.Errorf("stuck job state = %s, want cancelled", state)
	}
}

// TestNormalizeDefaults: omitted fields hash identically to explicit
// defaults, so `{"exp":"f1"}` and the fully spelled request share a key.
func TestNormalizeDefaults(t *testing.T) {
	a := sim.JobRequest{Exp: "F1"}
	b := sim.JobRequest{Exp: "f1", Request: sim.Request{LLCMB: 4, Ways: 16, Seed: 1, Scale: 1, Strength: "full"}}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("default and explicit requests hash differently:\n%+v\n%+v", a, b)
	}
	c := b
	c.Seed = 2
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Key() == b.Key() {
		t.Error("different seeds share a cache key")
	}
}

// TestResultCacheLRU: at capacity, a completed result evicts the least
// recently served one.
func TestResultCacheLRU(t *testing.T) {
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		return []*report.Table{{Title: fmt.Sprint(req.Seed)}}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 2, Runner: runner})
	post := func(seed uint64) jobView {
		t.Helper()
		req := fastReq()
		req.Seed = seed
		v, _ := postJob(t, ts, req)
		return waitDone(t, ts, v.ID, 10*time.Second)
	}
	post(1)
	post(2)
	if !post(1).Cached { // a hit touches seed 1: seed 2 is now least recent
		t.Fatal("seed 1 missing from the result cache")
	}
	post(3)
	if post(2).Cached {
		t.Error("seed 2 should have been evicted")
	}
	if !post(3).Cached {
		t.Error("seed 3 should have survived (recently used)")
	}
}

// TestExperimentsEndpoint lists the full catalogue.
func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		ID         string `json:"id"`
		Title      string `json:"title"`
		NeedsSuite bool   `json:"needs_suite"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(sim.Experiments()) {
		t.Errorf("listed %d experiments, want %d", len(list), len(sim.Experiments()))
	}
	ids := map[string]bool{}
	for _, e := range list {
		ids[e.ID] = true
	}
	for _, want := range []string{"config", "f1", "f9", "m1", "a5"} {
		if !ids[want] {
			t.Errorf("experiment list missing %s", want)
		}
	}
}

// TestJobNotFound: unknown IDs are 404 on every job route.
func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/job-999"},
		{http.MethodDelete, "/v1/jobs/job-999"},
		{http.MethodGet, "/v1/jobs/job-999/events"},
	} {
		req, _ := http.NewRequest(route.method, ts.URL+route.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", route.method, route.path, resp.StatusCode)
		}
	}
}

// TestFailedRunNotCached: a failing run must not poison the cache; a
// retry runs again.
func TestFailedRunNotCached(t *testing.T) {
	var runs int
	var mu sync.Mutex
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		mu.Lock()
		runs++
		n := runs
		mu.Unlock()
		if n == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return []*report.Table{{Title: "ok"}}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})

	v1, _ := postJob(t, ts, fastReq())
	f1 := waitDone(t, ts, v1.ID, 10*time.Second)
	if f1.State != stateFailed || !strings.Contains(f1.Error, "transient") {
		t.Fatalf("first run state=%s err=%q", f1.State, f1.Error)
	}
	v2, _ := postJob(t, ts, fastReq())
	f2 := waitDone(t, ts, v2.ID, 10*time.Second)
	if f2.State != stateDone || f2.Cached {
		t.Errorf("retry state=%s cached=%v, want fresh done", f2.State, f2.Cached)
	}
	mu.Lock()
	if runs != 2 {
		t.Errorf("runner ran %d times, want 2", runs)
	}
	mu.Unlock()
}

package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// TestJobsShareStreamCache is the PR's daemon acceptance test: two
// sequential jobs with the same machine, seed, scale and workload but
// different policies (so the result cache cannot serve the second) must
// build the workload stream exactly once, with the second job served
// from the shared stream cache — observable both on Cache.Stats and the
// /metrics endpoint.
func TestJobsShareStreamCache(t *testing.T) {
	sc := streamcache.New(streamcache.Options{Dir: t.TempDir()})
	_, ts := newTestServer(t, Config{Workers: 1, StreamCache: sc})

	req := fastReq()
	req.Workloads = []string{"swaptions"}
	req.Policies = []string{"lru"}
	v, _ := postJob(t, ts, req)
	waitDone(t, ts, v.ID, 30*time.Second)

	req2 := fastReq()
	req2.Workloads = []string{"swaptions"}
	req2.Policies = []string{"nru"}
	v2, _ := postJob(t, ts, req2)
	if v2.ID == v.ID {
		t.Fatal("second job coalesced onto the first; the test needs distinct runs")
	}
	done2 := waitDone(t, ts, v2.ID, 30*time.Second)
	if done2.Cached {
		t.Fatal("second job was a result-cache hit; the test needs a second run")
	}

	st := sc.Stats()
	if st.Builds != 1 {
		t.Errorf("two jobs built the shared stream %d times, want 1", st.Builds)
	}
	if st.Hits < 1 {
		t.Errorf("second job did not hit the stream cache: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"sharesimd_stream_builds_total 1\n",
		"sharesimd_stream_entries 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	// The hit counter on /metrics must agree with the cache itself.
	if !strings.Contains(text, "sharesimd_stream_hits_total") {
		t.Error("/metrics missing sharesimd_stream_hits_total")
	}
	// A finished job's replay returned its lane arrays to the mem pool,
	// so the pool gauge reads more than nothing.
	var pooled int
	if _, err := fmt.Sscanf(text[strings.Index(text, "\nsharesimd_mem_pool_bytes ")+1:], "sharesimd_mem_pool_bytes %d\n", &pooled); err != nil || pooled <= 0 {
		t.Errorf("/metrics pool gauge after two jobs: %d bytes (%v), want a positive count", pooled, err)
	}
}

// TestStreamMetricsAbsentWithoutCache: a manager built without a stream
// cache must not invent zero-valued stream series.
func TestStreamMetricsAbsentWithoutCache(t *testing.T) {
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		return nil, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, runner: runner})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "sharesimd_stream_") {
		t.Errorf("/metrics exposes stream series without a stream cache:\n%s", body)
	}
}

// TestSuitePrepProgressEvents: suite preparation reports through the
// job's SSE progress stream with a "prepare" label prefix.
func TestSuitePrepProgressEvents(t *testing.T) {
	sc := streamcache.New(streamcache.Options{})
	_, ts := newTestServer(t, Config{Workers: 1, StreamCache: sc})
	req := fastReq()
	v, _ := postJob(t, ts, req)
	waitDone(t, ts, v.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"prepare `) {
		t.Errorf("event stream has no suite-preparation progress:\n%s", body)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// memoReq is a job of exp small enough for a unit test, at the catalogue
// golden's 128 KB LLC, where the scaled streams still evict.
func memoReq(exp string) sim.JobRequest {
	return sim.JobRequest{Exp: exp, Request: sim.Request{LLCMB: 0.125, Ways: 16, Seed: 1, Scale: 0.02,
		Workloads: []string{"canneal", "swaptions"}}}
}

// runTables runs req on ts to its end and returns its tables as JSON.
func runTables(t *testing.T, ts *httptest.Server, req sim.JobRequest) []byte {
	t.Helper()
	v, _ := postJob(t, ts, req)
	v = waitDone(t, ts, v.ID, 2*time.Minute)
	if v.State != stateDone {
		t.Fatalf("%s: job ended %s (%s)", req.Exp, v.State, v.Error)
	}
	if v.Cached {
		t.Fatalf("%s: a result-cache hit; the test needs a run", req.Exp)
	}
	b, err := json.Marshal(v.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLaneMemoTablesAcrossJobs: every experiment that replays lanes the
// memo serves renders byte-identical tables on an empty memo and after
// jobs that filled it at other tiers — f1 (tracked) after f4 (shared
// hits), f4 after f1, f3 after f1, f8 (counts) after f5 (shared hits),
// a4 after f8, and a1 and a3 after f5 — and the memo serves exactly the
// lanes an earlier job replayed at the same or a higher tier, as its
// /metrics counters show.
func TestLaneMemoTablesAcrossJobs(t *testing.T) {
	sc := streamcache.New(streamcache.Options{})
	fresh := map[string][]byte{}
	for _, exp := range []string{"f1", "f3", "f4", "f5", "f8", "a1", "a3", "a4"} {
		_, ts := newTestServer(t, Config{Workers: 1, StreamCache: sc})
		fresh[exp] = runTables(t, ts, memoReq(exp))
	}
	// Per workload (two of them), the lanes each order takes from the
	// memo and the lanes it replays:
	//   f4 f1:          f4 replays 14; f1's tracked LRU lane is above
	//                   f4's shared-hit one, so it replays too.
	//   f1 f4 f3:       f1 replays 1; f4 takes it and replays 13; f3
	//                   takes it.
	//   f5 f8 a4 a1 a3: f5 replays its 4; f8 takes the 1× base and
	//                   oracle cell and replays 2 driven lanes; a4 takes
	//                   the base and the 4× horizon and replays 3
	//                   horizons; a1 takes the LRU base and full cell and
	//                   replays 4 SRRIP and insert-only lanes; a3 takes
	//                   the 16-way pair and replays the 8- and 32-way
	//                   pairs.
	for _, c := range []struct {
		order        []string
		hits, misses uint64
	}{
		{[]string{"f4", "f1"}, 0, 2 * 15},
		{[]string{"f1", "f4", "f3"}, 2 * 2, 2 * 14},
		{[]string{"f5", "f8", "a4", "a1", "a3"}, 2 * 8, 2 * 17},
	} {
		s, ts := newTestServer(t, Config{Workers: 1, StreamCache: sc})
		for i, exp := range c.order {
			got := runTables(t, ts, memoReq(exp))
			if !bytes.Equal(got, fresh[exp]) {
				t.Errorf("%s after %v: tables differ from an empty memo's:\n got %s\nwant %s", exp, c.order[:i], got, fresh[exp])
			}
		}
		hits, misses := s.m.lanes.Counts()
		if hits != c.hits || misses != c.misses {
			t.Errorf("%v: the memo counted %d hits and %d misses, want %d and %d", c.order, hits, misses, c.hits, c.misses)
		}
		metrics := get(t, ts.URL+"/metrics")
		for _, line := range []string{fmt.Sprintf("sharesimd_lane_memo_hits_total %d\n", hits), fmt.Sprintf("sharesimd_lane_memo_misses_total %d\n", misses)} {
			if !strings.Contains(metrics, line) {
				t.Errorf("%v: /metrics lacks %q", c.order, line)
			}
		}
	}
}

// TestLaneMemoConcurrentJobs runs jobs that share lanes on two job slots
// at once over one memo (the CI race step runs it under -race): each
// renders the tables it renders alone on an empty memo.
func TestLaneMemoConcurrentJobs(t *testing.T) {
	sc := streamcache.New(streamcache.Options{})
	exps := []string{"f5", "f8", "a1", "a4"}
	fresh := map[string][]byte{}
	for _, exp := range exps {
		_, ts := newTestServer(t, Config{Workers: 1, StreamCache: sc})
		fresh[exp] = runTables(t, ts, memoReq(exp))
	}
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: len(exps), StreamCache: sc})
	var wg sync.WaitGroup
	got := make([][]byte, len(exps))
	for i, exp := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _ := postJob(t, ts, memoReq(exp))
			v = waitDone(t, ts, v.ID, 2*time.Minute)
			got[i], _ = json.Marshal(v.Tables)
		}()
	}
	wg.Wait()
	for i, exp := range exps {
		if !bytes.Equal(got[i], fresh[exp]) {
			t.Errorf("%s beside the other jobs: tables differ from an empty memo's:\n got %s\nwant %s", exp, got[i], fresh[exp])
		}
	}
}

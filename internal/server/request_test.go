package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/cluster"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// TestJobBodyLimit: a job body one byte under the limit is accepted; one
// byte over is refused with 413 and creates no job.
func TestJobBodyLimit(t *testing.T) {
	runner := func(ctx context.Context, req sim.JobRequest, progress func(int, int, string)) ([]*report.Table, error) {
		return []*report.Table{{Title: "stub"}}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})
	post := func(size int) *http.Response {
		t.Helper()
		// Leading whitespace pads the body, so the decoder must read all
		// of it before it reaches the object.
		obj := `{"exp":"f1"}`
		body := strings.Repeat(" ", size-len(obj)) + obj
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(maxJobBody + 1); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("body of %d bytes: status %d, want 413", maxJobBody+1, resp.StatusCode)
	}
	if resp := post(maxJobBody); resp.StatusCode != http.StatusAccepted {
		t.Errorf("body of %d bytes: status %d, want 202", maxJobBody, resp.StatusCode)
	}
	// The accepted job is the first one: the refused body made none.
	if v := waitDone(t, ts, "job-1", 10*time.Second); v.Exp != "f1" {
		t.Errorf("job-1 is %q, want the accepted f1 job", v.Exp)
	}
}

// FuzzJobRequest holds the job API's intake to its contract. Decoding a
// body as handleSubmit does and normalizing it never panics, and an
// accepted request is a fixed point: its canonical JSON decodes and
// normalizes to the same JSON and key. Its workloads are sorted
// lower-case suite names, its scale lies in (0, 1], and its LLC is a
// geometry every catalogue policy runs at both the requested and the
// doubled size.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		// docs/API.md
		`{"exp": "f1", "seed": 1, "scale": 0.1}`,
		`{"exp":"f1","seed":1,"scale":0.1}`,
		// TestBadRequestsRejected
		`{"exp":"f6"}`,
		`{"exp":"f1","workloads":["doom"]}`,
		`{"exp":"all"}`,
		`{"exp":"f1","scale":7}`,
		`{}`,
		`{"exp":"f1","bogus":1}`,
		`{"exp":"f5","policies":["nope"]}`,
		`{"exp":"f1","machine":{"Cores":8}}`,
		`{"exp":"f1","exps":["f1"]}`,
		`{"exp":"f4","llc_mb":3,"ways":3}`,
		`{"exp":"f4","llc_mb":8,"ways":128}`,
		`{"exp":"f1","llc_mb":1048576}`,
		// bench/service.go's phase-A, phase-B and warm-up shapes
		`{"exp":"f4","llc_mb":0.25,"ways":8,"seed":1,"scale":0.1}`,
		`{"exp":"f8","llc_mb":1,"seed":2,"scale":0.25}`,
		`{"exp":"f9","seed":1,"scale":0.1}`,
		// every knob, unnormalized
		`{"exp":" F5 ","llc_mb":8,"ways":32,"seed":3,"scale":1,"workloads":[" Swaptions","canneal"],"policies":["LRU","ship"],"strength":"insert-only"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJob(body)
		if err != nil || req.Normalize() != nil {
			return
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeJob(canon)
		if err != nil {
			t.Fatalf("normalized %s does not decode: %v", canon, err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("normalized %s is rejected: %v", canon, err)
		}
		if twice, _ := json.Marshal(again); !bytes.Equal(twice, canon) || again.Key() != req.Key() {
			t.Fatalf("normalizing is not idempotent:\n once %s\ntwice %s", canon, twice)
		}
		if !sort.StringsAreSorted(req.Workloads) {
			t.Errorf("workloads not sorted: %q", req.Workloads)
		}
		for _, w := range req.Workloads {
			if _, err := workloads.ByName(w); err != nil || w != strings.ToLower(w) {
				t.Errorf("workload %q is not a lower-case suite name", w)
			}
		}
		if !(req.Scale > 0 && req.Scale <= 1) {
			t.Errorf("scale %g outside (0, 1]", req.Scale)
		}
		o := req.Options()
		for _, size := range []int{o.LLCSize, 2 * o.LLCSize} {
			if _, err := cache.Geometry(size, o.LLCWays); err != nil {
				t.Errorf("accepted %g MB at %d ways: %d bytes is no geometry: %v", req.LLCMB, req.Ways, size, err)
			}
		}
		if w := o.LLCWays; w > 64 || w&(w-1) != 0 {
			t.Errorf("accepted %d ways, which PLRU cannot run", w)
		}
	})
}

// decodeJob decodes body as POST /v1/jobs does.
func decodeJob(body []byte) (req sim.JobRequest, err error) {
	rec := httptest.NewRecorder()
	if !cluster.DecodeBody(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)), maxJobBody, "request body", &req) {
		err = errors.New(rec.Body.String())
	}
	return req, err
}

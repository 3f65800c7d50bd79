package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"sharellc/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/roles.golden from this run")

// rolesGolden pins what each sharesimd role serves: the status of a
// probe of every endpoint, the /healthz fields and every /metrics line.
const rolesGolden = "testdata/roles.golden"

// roleProbes are requests every role answers; which of them a role
// mounts shows in the status codes.
var roleProbes = []struct{ method, path, body string }{
	{"POST", "/v1/jobs", `{}`},
	{"GET", "/v1/jobs/job-none", ""},
	{"DELETE", "/v1/jobs/job-none", ""},
	{"GET", "/v1/jobs/job-none/events", ""},
	{"GET", "/v1/experiments", ""},
	{"POST", "/v1/cluster/lease", `{"proto":6,"worker":"probe"}`},
	{"POST", "/v1/cluster/bundles/b-none/heartbeat", `{"proto":6,"worker":"probe"}`},
	{"POST", "/v1/cluster/bundles/b-none/result", `{"proto":6,"worker":"probe"}`},
	{"GET", "/v1/streams/none", ""},
	{"GET", "/healthz", ""},
	{"GET", "/metrics", ""},
}

// TestDaemonRoleSurfaces starts the single, coordinator and worker roles
// in process, runs one small job through the single daemon and one
// through the coordinator (which its worker executes), and compares each
// role's surface against the golden: the status of every endpoint probe,
// the /healthz fields in order (values masked except role, status and
// the slot total) and every /metrics line in order — each # HELP and
// # TYPE line whole, each series by name and labels with its value
// masked. A worker mounts no job API: POST /v1/jobs is a 404 there.
func TestDaemonRoleSurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	single := serveRole(t, ctx, "single", "")
	coordinator := serveRole(t, ctx, "coordinator", "")
	worker := serveRole(t, ctx, "worker", coordinator.URL)

	req := sim.JobRequest{Exp: "f1", Request: sim.Request{Seed: 1, Scale: 0.02, Workloads: []string{"swaptions"}}}
	for _, ts := range []*httptest.Server{single, coordinator} {
		v, code := postJob(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: status %d, want 202", code)
		}
		if v := waitDone(t, ts, v.ID, 2*time.Minute); v.State != stateDone {
			t.Fatalf("job %s: state %s (%s), want done", v.ID, v.State, v.Error)
		}
	}
	// The worker's slot is busy until its result post returns, a moment
	// after the coordinator has the result.
	for deadline := time.Now().Add(10 * time.Second); strings.Contains(get(t, worker.URL+"/healthz"), `"busy":1`); {
		if time.Now().After(deadline) {
			t.Fatal("the worker stayed busy after its job finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var got bytes.Buffer
	for _, role := range []struct {
		name string
		ts   *httptest.Server
	}{{"single", single}, {"coordinator", coordinator}, {"worker", worker}} {
		fmt.Fprintf(&got, "== %s\n", role.name)
		for _, p := range roleProbes {
			r, err := http.NewRequest(p.method, role.ts.URL+p.path, strings.NewReader(p.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(r)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			fmt.Fprintf(&got, "%s %s %d\n", p.method, p.path, resp.StatusCode)
		}
		for _, f := range healthFields(t, get(t, role.ts.URL+"/healthz")) {
			fmt.Fprintf(&got, "healthz %s\n", f)
		}
		sc := bufio.NewScanner(strings.NewReader(get(t, role.ts.URL+"/metrics")))
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "#") {
				line = line[:strings.LastIndexByte(line, ' ')] + " _"
			}
			fmt.Fprintln(&got, line)
		}
	}

	if *update {
		if err := os.WriteFile(rolesGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(rolesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			g, w := "", ""
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got %q\nwant %q", rolesGolden, i+1, g, w)
			}
		}
	}
}

// get returns the body of a GET that must answer.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// healthFields lists a /healthz body's fields in order, one "path value"
// each. Strings and the slot total keep their values; every other number,
// which moves with the load, is masked.
func healthFields(t *testing.T, body string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	var out []string
	var walk func(path string)
	walk = func(path string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("/healthz %q: %v", body, err)
		}
		switch tok := tok.(type) {
		case json.Delim:
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					t.Fatalf("/healthz %q: %v", body, err)
				}
				walk(path + "." + key.(string))
			}
			dec.Token() // the closing delimiter
		case string:
			out = append(out, fmt.Sprintf("%s %q", path, tok))
		case float64:
			v := "_"
			if path == ".workers.total" {
				v = fmt.Sprint(tok)
			}
			out = append(out, path+" "+v)
		default:
			out = append(out, fmt.Sprintf("%s %v", path, tok))
		}
	}
	walk("")
	return out
}

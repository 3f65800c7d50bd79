package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one sharesimd process started by the benchmark. It binds to
// the binary's documented flags and HTTP API only.
type daemon struct {
	cmd *exec.Cmd
	url string
	log *os.File
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon starts sharesimd with its defaults plus the address, a
// snapshot directory of its own and extra (the cluster role flags), and
// returns once /healthz answers 200.
func startDaemon(ctx context.Context, bin, workDir, name string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(workDir, name+".log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-cachedir", filepath.Join(workDir, name+"-store")}, extra...)
	for i, a := range args {
		if a == "{self}" {
			args[i] = "http://" + addr
		}
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("%s did not become healthy at %s: %v", name, d.url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends the process, waits for it and returns its CPU seconds and
// peak resident set from the kernel's accounting.
func (d *daemon) stop() (cpuS, rssMB float64) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: Wait reports it
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
		}
	}()
	_ = d.cmd.Wait() // a signalled exit is the expected outcome
	close(done)
	d.log.Close()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return tvSeconds(ru.Utime) + tvSeconds(ru.Stime), float64(ru.Maxrss) / 1024
	}
	return 0, 0
}

// metrics scrapes /metrics and sums each series over its labels.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// jobView is the part of the daemon's job object the benchmark reads.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Error    string          `json:"error"`
	Tables   json.RawMessage `json:"tables"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
}

// jobResult is one request as its client saw it.
type jobResult struct {
	req     request
	repeat  bool // the list sent this request before
	status  int  // of the POST: 202 fresh work, 200 served without new work, 503 refused
	cached  bool // the POST's answer already carried the tables: a result-cache hit
	submit  time.Time
	latency time.Duration // submit → tables fetched
	view    jobView
	err     error
}

// runJob submits req and, unless the answer already carries the tables,
// waits on the job's event stream and then fetches the job.
func runJob(base string, req request) jobResult {
	r := jobResult{req: req, submit: time.Now()}
	r.err = func() error {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(req.key()))
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		r.status = resp.StatusCode
		if r.status != http.StatusAccepted && r.status != http.StatusOK {
			return fmt.Errorf("submit: HTTP %d: %s", r.status, bytes.TrimSpace(body))
		}
		if err := json.Unmarshal(body, &r.view); err != nil {
			return err
		}
		r.cached = r.view.State == "done"
		if !r.cached {
			ev, err := http.Get(base + "/v1/jobs/" + r.view.ID + "/events")
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, ev.Body) // the stream ends at the terminal state
			ev.Body.Close()
			if err != nil {
				return err
			}
			got, err := http.Get(base + "/v1/jobs/" + r.view.ID)
			if err != nil {
				return err
			}
			defer got.Body.Close()
			r.view = jobView{}
			if err := json.NewDecoder(got.Body).Decode(&r.view); err != nil {
				return err
			}
		}
		if r.view.State != "done" {
			return fmt.Errorf("job %s ended %s: %s", r.view.ID, r.view.State, r.view.Error)
		}
		return nil
	}()
	r.latency = time.Since(r.submit)
	return r
}

// The phase-A request mix: every experiment a daemon user can ask for
// that finishes in well under a second at a tenth of full size, at LLC
// sizes small enough that the scaled footprints still evict.
var (
	smallExps = []string{"f1", "f2", "f3", "f4", "f5", "f7", "f8", "f9", "c1", "c2", "a1", "a3", "a4"}
	smallLLCs = []float64{0.25, 0.5, 1}
	smallWays = []int{8, 16}
	bigExps   = []string{"f4", "f5", "f8"}
)

const (
	smallScale = 0.1  // phase A, times -scale
	bigScale   = 0.25 // phase B, times -scale
)

// smallCatalogue lists every phase-A request for a stream seed.
func smallCatalogue(seed uint64, scale float64) []request {
	var out []request
	for _, e := range smallExps {
		for _, llc := range smallLLCs {
			for _, w := range smallWays {
				out = append(out, request{Exp: e, LLCMB: llc, Ways: w, Seed: seed, Scale: smallScale * scale})
			}
		}
	}
	return out
}

// bigCatalogue lists the phase-B requests. The issue asks for each at two
// LLC sizes; one size keeps a traced service run under a minute.
func bigCatalogue(seed uint64, scale float64) []request {
	var out []request
	for _, e := range bigExps {
		out = append(out, request{Exp: e, LLCMB: 1, Seed: seed, Scale: bigScale * scale})
	}
	return out
}

type sentJob struct {
	req    request
	repeat bool
}

// jobList makes the phase-A list. The requests are the same for every
// seed, perExp of each experiment over its LLC geometries in turn, so
// every run does the same work; the seed orders them. After every second
// request comes a repeat of one of the previous 32, leaving out the last
// two sent, which may still be running: a repeat is then a result-cache
// hit, not a wait on the other client's job, and the makespan does not
// depend on which one the seed picked.
func jobList(seed uint64, catalogue []request, perExp int) []sentJob {
	byExp := map[string][]request{}
	for _, r := range catalogue {
		byExp[r.Exp] = append(byExp[r.Exp], r)
	}
	var fresh []request
	for i, e := range smallExps {
		rs := byExp[e]
		for k := 0; k < min(perExp, len(rs)); k++ {
			fresh = append(fresh, rs[(2*k+i)%len(rs)]) // walk the LLC sizes, alternating the ways
		}
	}
	rnd := rand.New(rand.NewSource(int64(seed)))
	rnd.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	var out []sentJob
	for n, r := range fresh {
		out = append(out, sentJob{req: r})
		if back := min(len(out), 32) - 2; n%2 == 1 && back > 0 {
			out = append(out, sentJob{req: out[len(out)-3-rnd.Intn(back)].req, repeat: true})
		}
	}
	return out
}

// closedLoop sends jobs from the list on clients connections; each client
// waits for its job's tables before it takes the next.
func closedLoop(base string, jobs []sentJob, clients int) ([]jobResult, time.Duration) {
	results := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i] = runJob(base, jobs[i].req)
				results[i].repeat = jobs[i].repeat
			}
		}()
	}
	wg.Wait()
	return results, time.Since(t0)
}

// serviceSize says how much of the service workload a run does.
type serviceSize struct {
	setups int       // daemon start + warm-up job, repeated for setup_s
	perExp int       // distinct phase-A requests of each of the 13 experiments
	big    []request // phase-B jobs; none skips phase B
}

// service drives the real binaries: phase A is a closed loop of small
// jobs against one daemon, phase B sends larger jobs one at a time to that
// daemon and then to a coordinator with two workers.
type service struct {
	ctx     context.Context
	bin     string // sharesimd
	workDir string
	seed    uint64 // orders the job list
	stream  uint64 // the seed inside every request
	scale   float64
	g       *golden
	tr      *tracer
	root    *span

	cpuS  float64 // CPU of every daemon stopped so far
	rssMB float64 // largest peak RSS among them
}

func (s *service) stop(d *daemon) {
	cpu, rss := d.stop()
	s.cpuS += cpu
	s.rssMB = max(s.rssMB, rss)
}

// verify checks one finished job's tables against the golden.
func (s *service) verify(r jobResult) {
	switch {
	case r.err != nil:
		s.g.failOp(fmt.Sprintf("service_jobs %s: %v", r.req.key(), r.err))
	default:
		s.g.check("service_jobs", r.req.key(), r.view.Tables)
	}
}

// jobSpans records a finished job's spans: the client's view, and under it
// the daemon's queue wait and run from the job object's timestamps.
func (s *service) jobSpans(parent *span, r jobResult) {
	if s.tr == nil || r.err != nil {
		return
	}
	js := s.tr.add(parent, "server.job:"+r.req.Exp, r.submit, r.submit.Add(r.latency))
	if r.view.Started != nil && r.view.Finished != nil && r.status == http.StatusAccepted {
		s.tr.add(js, "server.queue_wait", r.view.Created, *r.view.Started)
		s.tr.add(js, "server.run", *r.view.Started, *r.view.Finished)
	}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// run does the workload at the given size and returns its metrics: the
// end-to-end ones always, the server, cluster and stream-cache ones when
// phase B ran.
func (s *service) run(size serviceSize) (metricSet, error) {
	ms := metricSet{}
	clients := min(2, runtime.NumCPU())

	// Set-up: a healthy daemon plus one job that builds the small streams.
	warm := request{Exp: "f9", Seed: s.stream, Scale: smallScale * s.scale}
	var d *daemon
	var setups []float64
	for i := 0; i < size.setups; i++ {
		if d != nil {
			s.stop(d)
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon(s.ctx, s.bin, s.workDir, fmt.Sprintf("single-%d", i))
		if err != nil {
			return nil, err
		}
		r := runJob(d.url, warm)
		setups = append(setups, time.Since(t0).Seconds())
		s.verify(r)
		if r.err != nil {
			s.stop(d)
			return nil, fmt.Errorf("warm-up job: %w", r.err)
		}
	}
	defer func() { s.stop(d) }()
	ms["setup_s"] = median(setups)

	// Phase A.
	catalogue := smallCatalogue(s.stream, s.scale)
	perExp := size.perExp
	if s.g.record {
		perExp = len(smallLLCs) * len(smallWays) // an update run records the whole catalogue
	}
	jobs := jobList(s.seed, catalogue, perExp)
	pa := s.tr.begin(s.root, "bench.phase_a")
	results, makespan := closedLoop(d.url, jobs, clients)
	s.tr.end(pa, map[string]float64{"jobs": float64(len(jobs))})

	var fresh, queue, run, fetch, hit []float64
	var repeats, deduped, rejected float64
	for _, r := range results {
		s.verify(r)
		s.jobSpans(pa, r)
		if r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if r.repeat {
			repeats++
		}
		if r.err != nil {
			continue
		}
		switch {
		case r.status == http.StatusOK && r.repeat:
			deduped++
			if r.cached {
				hit = append(hit, msOf(r.latency))
			}
		case r.status == http.StatusAccepted:
			fresh = append(fresh, msOf(r.latency))
			if r.view.Started != nil && r.view.Finished != nil {
				queue = append(queue, msOf(r.view.Started.Sub(r.view.Created)))
				run = append(run, msOf(r.view.Finished.Sub(*r.view.Started)))
				fetch = append(fetch, msOf(r.latency-r.view.Finished.Sub(r.view.Created)))
			}
		}
	}
	if len(fresh) == 0 {
		return nil, fmt.Errorf("phase A finished no fresh job: %s", s.g.firstBad)
	}
	ms["iter_s"] = makespan.Seconds()
	ms["job_p50_ms"] = median(fresh)
	ms["server.job_ms_p90"] = percentile(fresh, 90)
	ms["info.job_samples"] = float64(len(fresh))
	ms["server.queue_wait_ms_p50"] = median(queue)
	ms["server.queue_wait_ms_p90"] = percentile(queue, 90)
	ms["server.run_ms_p50"] = median(run)
	ms["server.fetch_overhead_ms_p50"] = median(fetch)
	ms["server.cache_hit_ms_p50"] = median(hit)
	ms["server.rejected"] = rejected
	if repeats > 0 {
		ms["server.dedup_hit_ratio"] = deduped / repeats
	}
	// the share of the clients' time the daemon spent running their jobs
	ms["sim.layer_sum_ratio"] = sum(run) / 1e3 / (float64(clients) * makespan.Seconds())

	m, err := d.metrics()
	if err != nil {
		return nil, err
	}
	if b := m["sharesimd_stream_builds_total"]; b != 22 {
		s.g.failOp(fmt.Sprintf("service_jobs: the daemon built %g streams for 22 applications at one scale", b))
	}
	ms["streamcache.builds"] = m["sharesimd_stream_builds_total"]
	ms["streamcache.coalesced"] = m["sharesimd_stream_coalesced_total"]

	if len(size.big) > 0 {
		if err := s.phaseB(d, size.big, ms); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// phaseB sends the big jobs one at a time, first to the single daemon,
// then to a coordinator with two one-slot workers. The first cluster job
// also moves the snapshots to the workers, so it is timed apart.
func (s *service) phaseB(single *daemon, big []request, ms metricSet) error {
	oneByOne := func(name, base string) ([]float64, error) {
		ps := s.tr.begin(s.root, name)
		defer s.tr.end(ps, map[string]float64{"jobs": float64(len(big))})
		var secs []float64
		for _, req := range big {
			r := runJob(base, req)
			s.verify(r)
			s.jobSpans(ps, r)
			if r.err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, req.key(), r.err)
			}
			secs = append(secs, r.latency.Seconds())
		}
		return secs, nil
	}
	singleS, err := oneByOne("bench.phase_b_single", single.url)
	if err != nil {
		return err
	}

	coord, err := startDaemon(s.ctx, s.bin, s.workDir, "coordinator", "-mode", "coordinator", "-advertise", "{self}")
	if err != nil {
		return err
	}
	defer s.stop(coord)
	var workers []*daemon
	for i := 0; i < 2; i++ {
		w, err := startDaemon(s.ctx, s.bin, s.workDir, fmt.Sprintf("worker-%d", i),
			"-mode", "worker", "-workers", "1", "-coordinator-url", coord.url, "-advertise", "{self}")
		if err != nil {
			return err
		}
		defer s.stop(w)
		workers = append(workers, w)
	}
	clusterS, err := oneByOne("bench.phase_b_cluster", coord.url)
	if err != nil {
		return err
	}

	cm, err := coord.metrics()
	if err != nil {
		return err
	}
	var fetchBytes, fetches, fetchOK float64
	for _, w := range workers {
		wm, err := w.metrics()
		if err != nil {
			return err
		}
		fetchBytes += wm["sharesimd_stream_fetch_bytes_total"]
		fetches += wm["sharesimd_stream_fetch_total"]
		fetchOK += wm["sharesimd_stream_fetch_ok_total"]
	}
	// The first job on either side also builds the bigger streams (and on
	// the cluster ships them), so the steady figures leave it out.
	ms["server.big_job_s"] = median(singleS[1:])
	ms["cluster.first_job_s"] = clusterS[0]
	ms["cluster.job_s"] = median(clusterS[1:])
	ms["cluster.vs_single_ratio"] = median(clusterS[1:]) / median(singleS[1:])
	ms["cluster.bundles_per_job"] = cm["sharesimd_bundles_done_total"] / float64(len(big))
	ms["cluster.bundles_requeued"] = cm["sharesimd_bundles_requeued_total"]
	ms["cluster.bundles_failed"] = cm["sharesimd_bundles_failed_total"]
	ms["cluster.fetch_mb"] = fetchBytes / (1 << 20)
	if fetches > 0 {
		ms["cluster.fetch_ok_ratio"] = fetchOK / fetches
	}
	return nil
}

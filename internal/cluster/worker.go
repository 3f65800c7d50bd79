package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
	"sharellc/internal/workloads"
)

// maxSnapshotBytes caps one peer snapshot transfer. Full-suite streams
// are tens of MB; 2 GiB is far beyond any legitimate snapshot.
const maxSnapshotBytes = 2 << 30

// WorkerConfig configures a polling worker.
type WorkerConfig struct {
	// CoordinatorURL is the coordinator's base URL (required).
	CoordinatorURL string
	// SelfURL is this worker's own reachable base URL. It doubles as the
	// worker's identity in leases; when set, the coordinator advertises
	// it to peers as a snapshot source (serve Cache's snapshots there
	// through StreamHandler). Empty means anonymous: no peer serving.
	SelfURL string
	// Cache is the local stream store (required): fetched snapshots land
	// in it, and suite construction pulls streams through it.
	Cache *streamcache.Cache
	// Slots is the number of bundles executed concurrently. 0 means 1.
	Slots int
	// Poll is the idle wait between lease attempts when the coordinator
	// has no runnable work. 0 means 250ms.
	Poll time.Duration
}

// WorkerStats is a snapshot of a worker's counters, exported on its
// /metrics endpoint.
type WorkerStats struct {
	Busy         int64  // bundles executing right now (gauge)
	BundlesDone  uint64 // successful results delivered
	BundlesErred uint64 // results delivered with an error outcome
	FetchTotal   uint64 // peer/coordinator snapshot fetches attempted
	FetchOK      uint64 // fetches that validated and installed
	FetchBytes   uint64 // snapshot bytes fetched
	FetchErrors  uint64 // failed or rejected transfers (fell soft)
	LeaseErrors  uint64 // control-plane round-trips that failed
}

// Worker polls a coordinator for bundles, materializes the streams each
// bundle needs (local store, then listed sources, then the coordinator,
// then a local build — every transfer failure falls soft), executes the
// bundle slice, and posts the result. Heartbeats run at TTL/3; losing
// the lease (404/409) aborts the run promptly since another worker owns
// the bundle now.
type Worker struct {
	cfg  WorkerConfig
	name string

	busy        atomic.Int64
	done        atomic.Uint64
	erred       atomic.Uint64
	fetchTotal  atomic.Uint64
	fetchOK     atomic.Uint64
	fetchBytes  atomic.Uint64
	fetchErrors atomic.Uint64
	leaseErrors atomic.Uint64
}

// NewWorker validates cfg and builds a Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.CoordinatorURL == "" {
		return nil, errors.New("cluster: worker needs a coordinator URL")
	}
	if cfg.Cache == nil {
		return nil, errors.New("cluster: worker needs a stream cache")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	name := cfg.SelfURL
	if name == "" {
		name = "anonymous-worker"
	}
	return &Worker{cfg: cfg, name: name}, nil
}

// Stats snapshots the worker counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Busy:         w.busy.Load(),
		BundlesDone:  w.done.Load(),
		BundlesErred: w.erred.Load(),
		FetchTotal:   w.fetchTotal.Load(),
		FetchOK:      w.fetchOK.Load(),
		FetchBytes:   w.fetchBytes.Load(),
		FetchErrors:  w.fetchErrors.Load(),
		LeaseErrors:  w.leaseErrors.Load(),
	}
}

// Config returns the worker's configuration, defaults applied.
func (w *Worker) Config() WorkerConfig { return w.cfg }

// Run polls for work until ctx is cancelled, executing up to cfg.Slots
// bundles concurrently. It always returns ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for range w.cfg.Slots {
		wg.Add(1)
		go func() { defer wg.Done(); w.pollLoop(ctx) }()
	}
	wg.Wait()
	return ctx.Err()
}

func (w *Worker) pollLoop(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		lease, ok, err := w.lease(ctx)
		if err != nil {
			w.leaseErrors.Add(1)
		}
		if !ok {
			select {
			case <-ctx.Done():
				return
			case <-time.After(w.cfg.Poll):
			}
			continue
		}
		w.process(ctx, lease)
	}
}

// process runs one leased bundle under a heartbeat and reports back.
func (w *Worker) process(ctx context.Context, lease LeaseResponse) {
	w.busy.Add(1)
	defer w.busy.Add(-1)

	runCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		ttl := time.Duration(lease.TTLMillis) * time.Millisecond
		if ttl <= 0 {
			ttl = 15 * time.Second
		}
		tick := time.NewTicker(ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
				if !w.heartbeat(runCtx, lease.Bundle.ID) {
					cancel() // lease lost; someone else owns the bundle now
					return
				}
			}
		}
	}()

	res := w.executeBundle(runCtx, lease.Bundle)
	cancel()
	<-hbDone
	// Deliver even when the lease was lost mid-run: results are
	// idempotent and first-finisher-wins on the coordinator.
	if ctx.Err() != nil && res.Err == "" {
		return // shutting down with an incomplete run: nothing worth posting
	}
	if err := w.submit(ctx, lease.Bundle.ID, res); err != nil {
		w.leaseErrors.Add(1)
		return
	}
	if res.Err == "" {
		w.done.Add(1)
	} else {
		w.erred.Add(1)
	}
}

// executeBundle validates a leased bundle, materializes its streams and
// runs it to a result; a bundle that fails validation comes back as an
// error result without touching the simulator. Tests call it to drive
// the execution path without the poll loop (e.g. delivering a dead
// coordinator's lease to its successor).
func (w *Worker) executeBundle(ctx context.Context, b Bundle) BundleResult {
	res := BundleResult{Proto: ProtoVersion, Worker: w.name}
	if err := b.validate(); err != nil {
		res.Err = fmt.Sprintf("invalid bundle %s: %v", b.ID, err)
		return res
	}
	w.ensureStreams(ctx, b)
	res.setRows(w.runBundle(ctx, b))
	// Custody report: every referenced stream now resident here is
	// advertisable to peers, whether it arrived by fetch or local build.
	for _, ref := range b.Streams {
		if w.cfg.Cache.Contains(ref.Hash) {
			res.Built = append(res.Built, ref.Hash)
		}
	}
	return res
}

// setRows records a run's outcome: its rows as wire JSON, or the error of
// the run or of the encoding (a non-finite row value cannot cross).
func (res *BundleResult) setRows(rows any, err error) {
	if err == nil {
		res.Rows, err = sim.EncodeRows(rows)
	}
	if err != nil {
		res.Rows, res.Err = nil, err.Error()
	}
}

// validate normalizes a leased bundle's request the way the daemon
// normalizes a job body, and checks that the bundle names a cell of its
// plan: a spec index, with an empty workload for a whole-job spec and one
// of the job's workloads for a per-workload spec. A worker trusts nothing
// a coordinator sends, so no knob the daemon would refuse (an LLC some
// policy cannot run, an unknown workload) reaches the simulator.
func (b *Bundle) validate() error {
	if err := b.Request.Normalize(); err != nil {
		return err
	}
	if err := b.Request.machineConfig().Validate(); err != nil {
		return err
	}
	specs, _ := sim.PlanFor(b.Request.Exp, b.Request.Options())
	switch {
	case b.Spec < 0 || b.Spec >= len(specs):
		return fmt.Errorf("spec index %d out of range for %q (%d specs)", b.Spec, b.Request.Exp, len(specs))
	case specs[b.Spec].Whole:
		if b.Workload != "" {
			return fmt.Errorf("spec %d of %q runs once per job, not for workload %q", b.Spec, b.Request.Exp, b.Workload)
		}
	case !slices.Contains(b.Request.workloadOrder(), b.Workload):
		return fmt.Errorf("workload %q is not in the job's suite", b.Workload)
	}
	return nil
}

// runBundle runs a validated bundle's spec: a per-workload spec over a
// suite prepared with only its workload, a whole-job spec over a bare
// suite, since it builds the streams it reads itself.
func (w *Worker) runBundle(ctx context.Context, b Bundle) (any, error) {
	knobs := b.Request.Request
	specs, _ := sim.PlanFor(b.Request.Exp, knobs.Options())
	spec, prepare := specs[b.Spec], sim.BareSuite
	if !spec.Whole {
		knobs.Workloads, prepare = []string{b.Workload}, sim.NewSuiteContext
	}
	cfg, err := knobs.Config(b.Request.machineConfig())
	if err != nil {
		return nil, err
	}
	cfg.Streams = w.cfg.Cache.Stream
	suite, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return spec.Run(suite)
}

// ensureStreams makes each referenced stream locally resident if it can:
// already present, else fetched from a listed source or the coordinator.
// Every failure — unreachable source, truncated body, corrupt image —
// falls soft to trying the next source, and ultimately to letting the
// suite build the stream locally.
func (w *Worker) ensureStreams(ctx context.Context, b Bundle) {
	for _, ref := range b.Streams {
		if w.cfg.Cache.Contains(ref.Hash) {
			continue
		}
		model, err := b.Request.scaledModel(ref.Workload)
		if err != nil {
			continue // undecodable ref; the run will surface the real error
		}
		sources := append([]string(nil), ref.Sources...)
		sources = append(sources, w.cfg.CoordinatorURL)
		for _, src := range sources {
			if src == "" || src == w.cfg.SelfURL {
				continue
			}
			if w.fetchStream(ctx, src, ref.Hash, model) {
				break
			}
		}
	}
}

// fetchStream pulls one snapshot from src and installs it; reports
// success. All errors — transport, status, oversize, failed validation —
// are soft: the caller tries the next source or builds locally.
func (w *Worker) fetchStream(ctx context.Context, src, hash string, model workloads.Model) bool {
	w.fetchTotal.Add(1)
	url := strings.TrimSuffix(src, "/") + "/v1/streams/" + hash
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		w.fetchErrors.Add(1)
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.fetchErrors.Add(1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.fetchErrors.Add(1)
		return false
	}
	data, err := readAllLimited(resp.Body, maxSnapshotBytes)
	if err != nil {
		w.fetchErrors.Add(1)
		return false
	}
	if _, err := w.cfg.Cache.PutSnapshot(hash, data, model); err != nil {
		w.fetchErrors.Add(1)
		return false
	}
	w.fetchBytes.Add(uint64(len(data)))
	w.fetchOK.Add(1)
	return true
}

// lease asks the coordinator for work.
func (w *Worker) lease(ctx context.Context) (LeaseResponse, bool, error) {
	var lease LeaseResponse
	status, err := w.post(ctx, w.cfg.CoordinatorURL+"/v1/cluster/lease",
		LeaseRequest{Proto: ProtoVersion, Worker: w.name}, &lease)
	if err != nil {
		return lease, false, err
	}
	if status == http.StatusNoContent {
		return lease, false, nil
	}
	if status != http.StatusOK {
		return lease, false, fmt.Errorf("lease: unexpected status %d", status)
	}
	return lease, true, nil
}

// heartbeat reports liveness; false means the lease is gone.
func (w *Worker) heartbeat(ctx context.Context, bundleID string) bool {
	var hb HeartbeatResponse
	status, err := w.post(ctx, w.cfg.CoordinatorURL+"/v1/cluster/bundles/"+bundleID+"/heartbeat",
		HeartbeatRequest{Proto: ProtoVersion, Worker: w.name}, &hb)
	if err != nil {
		// Transient coordinator unavailability is not lease loss; keep
		// running and let the next tick (or the result post) decide.
		return true
	}
	return status == http.StatusOK
}

// submit delivers a bundle result.
func (w *Worker) submit(ctx context.Context, bundleID string, res BundleResult) error {
	status, err := w.post(ctx, w.cfg.CoordinatorURL+"/v1/cluster/bundles/"+bundleID+"/result", res, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("result: unexpected status %d", status)
	}
	return nil
}

// post is the tiny JSON round-tripper the control plane runs on.
func (w *Worker) post(ctx context.Context, url string, body, out any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := decodeJSON(http.MaxBytesReader(nil, resp.Body, maxControlBody), out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

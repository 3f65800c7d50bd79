package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sharellc/internal/cache"
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
// bundle needs (local store, then listed sources, then the coordinator
// when the lease says it holds the stream, then a local build — every
// transfer failure falls soft), executes the bundle slice, and posts the
// result. Heartbeats run at TTL/3; losing the lease (404/409) aborts the
// run promptly since another worker owns the bundle now, while any other
// failed heartbeat is transient and the run goes on.
type Worker struct {
	cfg  WorkerConfig
	name string
	// lanes is the process's lane memo: a lane that two bundles replay
	// over one stream (f8 reads f5's oracle cell) runs once.
	lanes *sim.LaneMemo

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
	return &Worker{cfg: cfg, name: name, lanes: sim.NewLaneMemo()}, nil
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
func (w *Worker) process(ctx context.Context, lease leaseResponse) {
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

// executeBundle validates a leased bundle, materializes the streams its
// cell reads and runs it to a result; a bundle that fails validation
// comes back as an error result without touching the simulator. Tests
// call it to drive the execution path without the poll loop (e.g.
// delivering a dead coordinator's lease to its successor).
func (w *Worker) executeBundle(ctx context.Context, b bundle) bundleResult {
	res := bundleResult{Proto: protoVersion, Worker: w.name}
	plan, err := b.validate()
	if err != nil {
		res.Err = fmt.Sprintf("invalid bundle %s: %v", b.ID, err)
		return res
	}
	w.ensureStreams(ctx, b, plan.Reads(b.Workload))
	cfg := sim.Config{Machine: cache.DefaultConfig(), Streams: w.cfg.Cache.Stream, Lanes: w.lanes}
	res.setRows(plan.Run(ctx, cfg, b.Workload))
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
func (res *bundleResult) setRows(rows any, err error) {
	if err == nil {
		res.Rows, err = sim.EncodeRows(rows)
	}
	if err != nil {
		res.Rows, res.Err = nil, err.Error()
	}
}

// validate normalizes a leased bundle's request the way the daemon
// normalizes a job body and returns its plan, refusing a bundle whose
// cell the plan does not hold (sim.Job.Check). A worker trusts nothing a
// coordinator sends, so no knob the daemon would refuse (an LLC some
// policy cannot run, an unknown workload) reaches the simulator.
func (b *bundle) validate() (sim.Job, error) {
	if err := b.Request.Normalize(); err != nil {
		return sim.Job{}, err
	}
	plan, ok := sim.PlanJob(b.Request)
	if !ok {
		return sim.Job{}, fmt.Errorf("experiment %q has no table plan", b.Request.Exp)
	}
	return plan, plan.Check(b.Workload)
}

// ensureStreams makes each referenced stream of a model the cell reads
// locally resident if it can: already present, else fetched from a
// listed source or, when the lease says it holds the stream, the
// coordinator. A stream no node holds is built locally without a fetch.
// Every failure — unreachable source, truncated body, corrupt image —
// falls soft to trying the next source, and ultimately to letting the
// suite build the stream locally.
func (w *Worker) ensureStreams(ctx context.Context, b bundle, reads []workloads.Model) {
	for _, ref := range b.Streams {
		i := slices.IndexFunc(reads, func(m workloads.Model) bool { return m.Name == ref.Workload })
		if i < 0 || w.cfg.Cache.Contains(ref.Hash) {
			continue // no stream of this cell, or resident already
		}
		sources := ref.Sources
		if ref.Coordinator {
			sources = append(sources, w.cfg.CoordinatorURL)
		}
		for _, src := range sources {
			if src == "" || src == w.cfg.SelfURL {
				continue
			}
			if w.fetchStream(ctx, src, ref.Hash, reads[i]) {
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
	n, err := w.installSnapshot(ctx, strings.TrimSuffix(src, "/")+"/v1/streams/"+hash, hash, model)
	if err != nil {
		w.fetchErrors.Add(1)
		return false
	}
	w.fetchBytes.Add(uint64(n))
	w.fetchOK.Add(1)
	return true
}

// installSnapshot fetches the snapshot image at url, at most
// maxSnapshotBytes, installs it under hash and returns its size.
func (w *Worker) installSnapshot(ctx context.Context, url, hash string, model workloads.Model) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("snapshot %s: status %d", hash, resp.StatusCode)
	}
	data, err := io.ReadAll(http.MaxBytesReader(nil, resp.Body, maxSnapshotBytes))
	if err != nil {
		return 0, err
	}
	_, err = w.cfg.Cache.PutSnapshot(hash, data, model)
	return len(data), err
}

// lease asks the coordinator for work.
func (w *Worker) lease(ctx context.Context) (leaseResponse, bool, error) {
	var lease leaseResponse
	status, err := w.post(ctx, w.cfg.CoordinatorURL+"/v1/cluster/lease",
		workerRequest{Proto: protoVersion, Worker: w.name}, &lease)
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

// heartbeat reports liveness; false means the lease is gone: the
// coordinator knows no such bundle (404) or another worker holds it
// (409). Any other failure — a transport error, a 503 from an overloaded
// coordinator or a proxy — is transient, not lease loss; the run goes on
// and the next tick (or the result post) decides.
func (w *Worker) heartbeat(ctx context.Context, bundleID string) bool {
	status, err := w.post(ctx, w.cfg.CoordinatorURL+"/v1/cluster/bundles/"+bundleID+"/heartbeat",
		workerRequest{Proto: protoVersion, Worker: w.name}, nil)
	return err != nil || (status != http.StatusNotFound && status != http.StatusConflict)
}

// submit delivers a bundle result.
func (w *Worker) submit(ctx context.Context, bundleID string, res bundleResult) error {
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

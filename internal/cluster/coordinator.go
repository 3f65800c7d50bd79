package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// CoordinatorConfig sizes a Coordinator.
type CoordinatorConfig struct {
	// Cache, when non-nil, lets the coordinator serve snapshots it holds
	// via GET /v1/streams/{hash}; a lease marks each stream it holds, and
	// the worker fetches that stream from its coordinator URL.
	Cache *streamcache.Cache
	// LeaseTTL is how long a worker owns a bundle between heartbeats
	// before it is re-queued. 0 means 15s.
	LeaseTTL time.Duration
}

// maxAttempts bounds lease attempts per bundle before the owning job
// fails: a bundle that kills every worker that touches it must not
// re-queue forever.
const maxAttempts = 5

// CoordinatorStats is a snapshot of the scheduler's counters, exported
// on /metrics as the sharesimd_bundles_* and sharesimd_stream_* series.
type CoordinatorStats struct {
	Jobs            int    // jobs ever admitted (counter)
	JobsInflight    int    // jobs not yet terminal (gauge)
	BundlesPending  int    // gauge
	BundlesInflight int    // leased, not yet resolved (gauge)
	BundlesDone     uint64 // counter
	BundlesRequeued uint64 // lease expiries re-queued (counter)
	BundlesFailed   uint64 // failed result posts / decode rejects (counter)
	StreamServes    uint64 // GET /v1/streams hits served (counter)
	StreamBytes     uint64 // bytes served (counter)
}

const (
	bundlePending = iota
	bundleLeased
	bundleDone
)

// bundleState is the coordinator-side state of one protocol bundle.
type bundleState struct {
	proto bundle
	job   *job

	state    int
	worker   string
	expiry   time.Time
	attempts int

	rows any // decoded rows
}

// job is one admitted request and its bundles, one per cell of its plan
// in the plan's merge order.
type job struct {
	key     string
	req     sim.JobRequest
	plan    sim.Job
	bundles []*bundleState
	done    int

	err      error
	tables   []*report.Table
	doneCh   chan struct{}
	progress func(done, total int, label string)
}

func (j *job) terminal() bool {
	select {
	case <-j.doneCh:
		return true
	default:
		return false
	}
}

// Coordinator owns the bundle scheduler. It is transport-agnostic — Run
// is callable in-process (it is a coordinator daemon's job runner) and
// the HTTP handlers under Register adapt the worker-facing protocol.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	jobs    map[string]*job
	bundles map[string]*bundleState
	queue   []*bundleState
	// holders: stream hash -> worker base URLs known to hold it.
	holders map[string]map[string]bool
	// building: stream hash -> the leased bundle expected to materialize
	// it. Other bundles needing the hash defer until it is available or
	// the lease dies, so each stream is built at most once cluster-wide.
	building map[string]*bundleState
	stats    CoordinatorStats
}

// NewCoordinator builds a Coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	return &Coordinator{
		cfg:      cfg,
		jobs:     map[string]*job{},
		bundles:  map[string]*bundleState{},
		holders:  map[string]map[string]bool{},
		building: map[string]*bundleState{},
	}
}

// Run schedules the job req, blocks until every bundle has been executed
// by some worker, and returns the merged tables, byte-identical to what a
// single daemon produces for the same job. req must be normalized
// (sim.JobRequest.Normalize): the daemon's Manager admits, coalesces and
// caches jobs and hands each one over once, so a Run for a job already
// in flight is an error. A static experiment, one without a table plan,
// runs inline with no bundles. Cancelling ctx fails and forgets an unfinished job,
// dropping its pending bundles; a worker mid-bundle learns at its next
// heartbeat and cancels. A job is forgotten once it finishes or fails, so
// a later identical Run schedules it afresh.
func (c *Coordinator) Run(ctx context.Context, req sim.JobRequest, progress func(done, total int, label string)) ([]*report.Table, error) {
	plan, ok := sim.PlanJob(req)
	if !ok {
		exp, err := sim.ExperimentByID(req.Exp)
		if err != nil {
			return nil, err
		}
		return exp.Run(nil, req.Options())
	}
	key := req.Key()

	c.mu.Lock()
	if _, ok := c.jobs[key]; ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("job %s (%s) is already running", key, req.Exp)
	}
	j := c.admitLocked(key, req, plan, progress)
	c.mu.Unlock()

	if progress != nil {
		progress(0, len(j.bundles), "bundles queued")
	}
	select {
	case <-j.doneCh:
		return j.tables, j.err
	case <-ctx.Done():
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !j.terminal() {
		j.err = ctx.Err()
		close(j.doneCh)
		c.forgetLocked(j)
	}
	return nil, ctx.Err()
}

// admitLocked queues one bundle per cell of a job's plan, in plan order,
// naming the streams the cell reads; the lease scan plus stream gating
// takes care of spreading workloads across workers. Caller holds c.mu.
func (c *Coordinator) admitLocked(key string, req sim.JobRequest, plan sim.Job, progress func(int, int, string)) *job {
	j := &job{key: key, req: req, plan: plan, doneCh: make(chan struct{}), progress: progress}
	for _, workload := range plan.Cells {
		b := &bundleState{proto: bundle{ID: bundleID(key, req.Exp, workload), Workload: workload, Request: req}, job: j}
		for _, m := range plan.Reads(workload) {
			b.proto.Streams = append(b.proto.Streams, refFor(m, req.Seed))
		}
		j.bundles = append(j.bundles, b)
		c.bundles[b.proto.ID] = b
		c.queue = append(c.queue, b)
	}
	c.jobs[key] = j
	c.stats.Jobs++
	return j
}

// available reports whether some node already holds the stream, so a
// bundle needing it need not be gated behind the builder's lease.
func (c *Coordinator) availableLocked(hash string) bool {
	if len(c.holders[hash]) > 0 {
		return true
	}
	return c.cfg.Cache != nil && c.cfg.Cache.Contains(hash)
}

// gatedLocked reports whether b must wait: some stream it needs is
// neither available anywhere nor being built under b's own lease.
func (c *Coordinator) gatedLocked(b *bundleState) bool {
	for _, ref := range b.proto.Streams {
		if c.availableLocked(ref.Hash) {
			continue
		}
		if builder, ok := c.building[ref.Hash]; ok && builder != b {
			return true
		}
	}
	return false
}

// reapLocked re-queues expired leases and fails bundles that exhausted
// their attempts. Called lazily from every protocol entry point.
func (c *Coordinator) reapLocked() {
	now := time.Now()
	for _, b := range c.bundles {
		if b.state != bundleLeased || now.Before(b.expiry) {
			continue
		}
		c.requeueLocked(b, &c.stats.BundlesRequeued, fmt.Errorf("abandoned after %d lease attempts", b.attempts))
	}
}

// requeueLocked takes b back from its lease, counting it in n, and
// queues it again, or fails its job with err once b spent its attempts.
func (c *Coordinator) requeueLocked(b *bundleState, n *uint64, err error) {
	c.releaseBuildingLocked(b)
	b.state, b.worker = bundlePending, ""
	*n++
	if b.attempts >= maxAttempts {
		c.failBundleLocked(b, fmt.Errorf("bundle %s (%s/%s): %w",
			b.proto.ID, b.job.req.Exp, b.proto.Workload, err))
		return
	}
	c.queue = append(c.queue, b)
}

func (c *Coordinator) releaseBuildingLocked(b *bundleState) {
	for hash, builder := range c.building {
		if builder == b {
			delete(c.building, hash)
		}
	}
}

// failBundleLocked fails and forgets the owning job; its remaining
// bundles stop being leased (the scan skips bundles of terminal jobs).
func (c *Coordinator) failBundleLocked(b *bundleState, err error) {
	b.state = bundleDone
	c.stats.BundlesFailed++
	j := b.job
	if !j.terminal() {
		j.err = err
		close(j.doneCh)
	}
	c.forgetLocked(j)
}

// forgetLocked drops a terminal job and its bundles. Run holds the job
// itself, so it still reads the outcome; a late result or heartbeat for
// one of its bundles finds an unknown bundle.
func (c *Coordinator) forgetLocked(j *job) {
	if c.jobs[j.key] == j {
		delete(c.jobs, j.key)
	}
	for _, b := range j.bundles {
		c.releaseBuildingLocked(b)
		delete(c.bundles, b.proto.ID)
	}
}

// Errors the HTTP layer maps onto status codes.
var (
	errUnknownBundle = errors.New("unknown bundle")
	errLeaseLost     = errors.New("lease lost")
)

// lease hands the next runnable bundle to worker, or ok=false when
// nothing is currently runnable (no work, or every candidate is gated
// behind an in-flight stream build).
func (c *Coordinator) lease(worker string) (leaseResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()

	kept := c.queue[:0]
	var chosen *bundleState
	for _, b := range c.queue {
		if b.state != bundlePending || b.job.terminal() {
			continue // drop resolved entries during the scan
		}
		if chosen == nil && !c.gatedLocked(b) {
			chosen = b
			continue // leased: out of the queue
		}
		kept = append(kept, b)
	}
	clear(c.queue[len(kept):])
	c.queue = kept
	if chosen == nil {
		return leaseResponse{}, false
	}

	chosen.state = bundleLeased
	chosen.worker = worker
	chosen.expiry = time.Now().Add(c.cfg.LeaseTTL)
	chosen.attempts++
	// Claim the streams this lease is now expected to materialize, and
	// tell the worker where the already-available ones live.
	out := chosen.proto
	out.Streams = append([]streamRef(nil), chosen.proto.Streams...)
	for i, ref := range out.Streams {
		if !c.availableLocked(ref.Hash) {
			c.building[ref.Hash] = chosen
		}
		var sources []string
		for h := range c.holders[ref.Hash] {
			if h != "" && h != worker {
				sources = append(sources, h)
			}
		}
		out.Streams[i].Sources = sources
		out.Streams[i].Coordinator = c.cfg.Cache != nil && c.cfg.Cache.Contains(ref.Hash)
	}
	return leaseResponse{Bundle: out, TTLMillis: c.cfg.LeaseTTL.Milliseconds()}, true
}

// heartbeat extends worker's lease on a bundle.
func (c *Coordinator) heartbeat(id, worker string) (heartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	b, ok := c.bundles[id]
	if !ok {
		return heartbeatResponse{}, errUnknownBundle
	}
	if b.state != bundleLeased || b.worker != worker {
		return heartbeatResponse{}, errLeaseLost
	}
	b.expiry = time.Now().Add(c.cfg.LeaseTTL)
	return heartbeatResponse{TTLMillis: c.cfg.LeaseTTL.Milliseconds()}, nil
}

// result accepts a bundle's outcome. Rows are accepted from any worker
// for any unresolved bundle — including one whose lease expired or that
// this coordinator never leased (restart re-adoption) — because
// execution is deterministic: whoever finishes first wins, duplicates
// are idempotent. A failure counts only from the worker holding the
// bundle's lease: a worker whose lease expired cancels its run when the
// next heartbeat answers 409, and that run's error must not fail the
// lease another worker now holds.
func (c *Coordinator) result(id string, res bundleResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	b, ok := c.bundles[id]
	if !ok {
		return errUnknownBundle
	}
	// Record stream custody regardless of outcome: a worker that fetched
	// or built streams can serve peers even if its run then failed.
	if res.Worker != "" {
		for _, hash := range res.Built {
			if c.holders[hash] == nil {
				c.holders[hash] = map[string]bool{}
			}
			c.holders[hash][res.Worker] = true
		}
	}
	if b.state == bundleDone || b.job.terminal() {
		return nil // duplicate or moot: idempotent accept
	}

	fail := func(err error) error {
		if b.state == bundleLeased && b.worker == res.Worker {
			c.requeueLocked(b, &c.stats.BundlesFailed, err)
		}
		return nil
	}
	if res.Err != "" {
		return fail(errors.New(res.Err))
	}
	rows, err := b.job.plan.Decode(res.Rows)
	if err != nil {
		return fail(err)
	}
	b.rows = rows

	c.releaseBuildingLocked(b)
	b.state = bundleDone
	b.worker = res.Worker
	c.stats.BundlesDone++
	j := b.job
	j.done++
	total := len(j.bundles)
	if j.progress != nil {
		j.progress(j.done, total, strings.TrimSpace("bundle "+j.req.Exp+" "+b.proto.Workload))
	}
	if j.done == total {
		c.finishLocked(j)
	}
	return nil
}

// finishLocked merges a completed job's rows, bundle by bundle in plan
// order, into its tables (sim.Job.Tables), byte-identical to the direct
// path. The job is then forgotten.
func (c *Coordinator) finishLocked(j *job) {
	rows := make([]any, len(j.bundles))
	for i, b := range j.bundles {
		rows[i] = b.rows
	}
	j.tables, j.err = j.plan.Tables(rows)
	close(j.doneCh)
	c.forgetLocked(j)
}

// Stats snapshots the scheduler counters.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.JobsInflight = len(c.jobs)
	for _, b := range c.bundles {
		switch b.state {
		case bundlePending:
			s.BundlesPending++
		case bundleLeased:
			s.BundlesInflight++
		}
	}
	return s
}

// Register mounts the coordinator's worker-facing protocol on mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/lease", c.handleLease)
	mux.HandleFunc("POST /v1/cluster/bundles/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/bundles/{id}/result", c.handleResult)
	mux.HandleFunc("GET /v1/streams/{hash}", StreamHandler(c.cfg.Cache, func(n int) {
		c.mu.Lock()
		c.stats.StreamServes++
		c.stats.StreamBytes += uint64(n)
		c.mu.Unlock()
	}))
}

// WriteJSON answers with v as JSON: the job API's and the bundle protocol's envelope.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers a request with {"error": err}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// maxControlBody bounds every control-plane body, in both directions.
// The largest legitimate request is a result: one bundle's rows of its
// spec's tables as JSON, plus the custody hashes. Row counts do not grow with
// scale or suite size, and the largest result a full-size run of the
// catalogue at default knobs posts is 2.6 KiB (one workload's 14 policy-comparison rows);
// the 3-worker e2e test fails past maxControlBody/8. The
// largest response is a lease: one job request plus a stream reference
// and its source URLs per stream the bundle reads.
const maxControlBody = 64 << 10

// decodeJSON decodes one JSON value from body into v, rejecting unknown
// fields. It reads the body to its end, so a body past a MaxBytesReader
// limit fails wherever the excess sits.
func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		_, err = io.Copy(io.Discard, body)
	}
	return err
}

// DecodeBody decodes one request body of at most limit bytes into v,
// naming it what in errors. On failure it answers the request itself —
// 413 past the limit, 400 otherwise — and reports false.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := decodeJSON(http.MaxBytesReader(w, r.Body, limit), v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		WriteError(w, http.StatusRequestEntityTooLarge, err)
	case err != nil:
		WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid %s: %w", what, err))
	}
	return err == nil
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req workerRequest
	if !DecodeBody(w, r, maxControlBody, "lease request", &req) || !checkProto(w, req.Proto) {
		return
	}
	lease, ok := c.lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	WriteJSON(w, http.StatusOK, lease)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req workerRequest
	if !DecodeBody(w, r, maxControlBody, "heartbeat", &req) || !checkProto(w, req.Proto) {
		return
	}
	hb, err := c.heartbeat(r.PathValue("id"), req.Worker)
	switch {
	case errors.Is(err, errUnknownBundle):
		WriteError(w, http.StatusNotFound, err)
	case errors.Is(err, errLeaseLost):
		WriteError(w, http.StatusConflict, err)
	default:
		WriteJSON(w, http.StatusOK, hb)
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var res bundleResult
	if !DecodeBody(w, r, maxControlBody, "result", &res) || !checkProto(w, res.Proto) {
		return
	}
	if err := c.result(r.PathValue("id"), res); err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
}

// StreamHandler serves content-addressed snapshot images from a stream
// cache: GET /v1/streams/{hash}. Both coordinator and workers mount it,
// so any peer can be a source. A nil cache always 404s.
func StreamHandler(sc *streamcache.Cache, served func(bytes int)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if sc == nil {
			http.Error(w, "no stream cache on this node", http.StatusNotFound)
			return
		}
		data, ok := sc.SnapshotBytes(hash)
		if !ok {
			http.Error(w, "unknown stream "+hash, http.StatusNotFound)
			return
		}
		if served != nil {
			served(len(data))
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprintf("%d", len(data)))
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

// CoordinatorConfig sizes a Coordinator.
type CoordinatorConfig struct {
	// Cache, when non-nil, lets the coordinator serve snapshots it holds
	// via GET /v1/streams/{hash} and advertise itself as a source.
	Cache *streamcache.Cache
	// SelfURL is the coordinator's own base URL as workers reach it
	// (advertised as a stream source). Empty disables the advertisement;
	// workers still fall back to their configured coordinator URL.
	SelfURL string
	// LeaseTTL is how long a worker owns a bundle between heartbeats
	// before it is re-queued. 0 means 15s.
	LeaseTTL time.Duration
	Now      func() time.Time // test hook; nil means time.Now
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

// bundle is the coordinator-side state of one protocol Bundle.
type bundle struct {
	proto Bundle
	job   *job

	state    int
	worker   string
	expiry   time.Time
	attempts int

	rows any // decoded rows
}

// job is one admitted request and its bundles, in queue order: spec-major,
// one bundle per workload in canonical merge order for a per-workload
// spec and one for a whole-job spec.
type job struct {
	key     string
	req     Request
	specs   []sim.TableSpec
	bundles []*bundle
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
// is callable in-process (the daemon's distributed runner does) and the
// HTTP handlers under Register adapt the worker-facing protocol.
type Coordinator struct {
	cfg CoordinatorConfig
	now func() time.Time

	mu      sync.Mutex
	jobs    map[string]*job
	bundles map[string]*bundle
	queue   []*bundle
	// holders: stream hash -> worker base URLs known to hold it.
	holders map[string]map[string]bool
	// building: stream hash -> the leased bundle expected to materialize
	// it. Other bundles needing the hash defer until it is available or
	// the lease dies, so each stream is built at most once cluster-wide.
	building map[string]*bundle
	stats    CoordinatorStats
}

// NewCoordinator builds a Coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Coordinator{
		cfg:      cfg,
		now:      now,
		jobs:     map[string]*job{},
		bundles:  map[string]*bundle{},
		holders:  map[string]map[string]bool{},
		building: map[string]*bundle{},
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
func (c *Coordinator) Run(ctx context.Context, req Request, progress func(done, total int, label string)) ([]*report.Table, error) {
	exp, err := sim.ExperimentByID(req.Exp)
	if err != nil {
		return nil, err
	}
	specs, ok := sim.PlanFor(exp.ID, req.Options())
	if !ok {
		return exp.Run(nil, req.Options())
	}
	key := req.Key()

	c.mu.Lock()
	if _, ok := c.jobs[key]; ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("job %s (%s) is already running", key, req.Exp)
	}
	j, err := c.admitLocked(key, req, specs, progress)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}

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

// admitLocked queues a job's bundles: one per workload for a
// per-workload spec, naming that workload's stream, and one with an empty
// workload for a whole-job spec, naming the streams the spec reads.
// Caller holds c.mu.
func (c *Coordinator) admitLocked(key string, req Request, specs []sim.TableSpec, progress func(int, int, string)) (*job, error) {
	j := &job{key: key, req: req, specs: specs, doneCh: make(chan struct{}), progress: progress}
	for si, sp := range specs {
		names := req.workloadOrder()
		if sp.Whole {
			names = []string{""}
		}
		for _, w := range names {
			reads := sp.Reads
			if !sp.Whole {
				reads = []string{w}
			}
			b := &bundle{proto: Bundle{ID: bundleID(key, req.Exp, si, w), Spec: si, Workload: w, Request: req}, job: j}
			for _, r := range reads {
				ref, err := req.streamRefFor(r, req.Seed)
				if err != nil {
					return nil, err
				}
				b.proto.Streams = append(b.proto.Streams, ref)
			}
			j.bundles = append(j.bundles, b)
		}
	}
	// Queue in plan order; the lease scan plus stream gating takes care
	// of spreading workloads across workers.
	for _, b := range j.bundles {
		c.bundles[b.proto.ID] = b
		c.queue = append(c.queue, b)
	}
	c.jobs[key] = j
	c.stats.Jobs++
	return j, nil
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
func (c *Coordinator) gatedLocked(b *bundle) bool {
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
	now := c.now()
	for _, b := range c.bundles {
		if b.state != bundleLeased || now.Before(b.expiry) {
			continue
		}
		c.releaseBuildingLocked(b)
		b.state = bundlePending
		b.worker = ""
		c.stats.BundlesRequeued++
		if b.attempts >= maxAttempts {
			c.failBundleLocked(b, fmt.Errorf("bundle %s (%s/%d/%s) abandoned after %d lease attempts",
				b.proto.ID, b.job.req.Exp, b.proto.Spec, b.proto.Workload, b.attempts))
			continue
		}
		c.queue = append(c.queue, b)
	}
}

func (c *Coordinator) releaseBuildingLocked(b *bundle) {
	for hash, builder := range c.building {
		if builder == b {
			delete(c.building, hash)
		}
	}
}

// failBundleLocked fails and forgets the owning job; its remaining
// bundles stop being leased (the scan skips bundles of terminal jobs).
func (c *Coordinator) failBundleLocked(b *bundle, err error) {
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
	ErrUnknownBundle = errors.New("unknown bundle")
	ErrLeaseLost     = errors.New("lease lost")
)

// lease hands the next runnable bundle to worker, or ok=false when
// nothing is currently runnable (no work, or every candidate is gated
// behind an in-flight stream build).
func (c *Coordinator) lease(worker string) (LeaseResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()

	kept := c.queue[:0]
	var chosen *bundle
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
	for i := len(kept); i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = kept
	if chosen == nil {
		return LeaseResponse{}, false
	}

	chosen.state = bundleLeased
	chosen.worker = worker
	chosen.expiry = c.now().Add(c.cfg.LeaseTTL)
	chosen.attempts++
	// Claim the streams this lease is now expected to materialize, and
	// tell the worker where the already-available ones live.
	out := chosen.proto
	out.Streams = append([]StreamRef(nil), chosen.proto.Streams...)
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
		if c.cfg.SelfURL != "" && c.cfg.Cache != nil && c.cfg.Cache.Contains(ref.Hash) {
			sources = append(sources, c.cfg.SelfURL)
		}
		out.Streams[i].Sources = sources
	}
	return LeaseResponse{Bundle: out, TTLMillis: c.cfg.LeaseTTL.Milliseconds()}, true
}

// heartbeat extends worker's lease on a bundle.
func (c *Coordinator) heartbeat(id, worker string) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	b, ok := c.bundles[id]
	if !ok {
		return HeartbeatResponse{}, ErrUnknownBundle
	}
	if b.state != bundleLeased || b.worker != worker {
		return HeartbeatResponse{}, ErrLeaseLost
	}
	b.expiry = c.now().Add(c.cfg.LeaseTTL)
	return HeartbeatResponse{TTLMillis: c.cfg.LeaseTTL.Milliseconds()}, nil
}

// Result accepts a bundle's outcome. Results are accepted from any
// worker for any unresolved bundle — including one whose lease expired
// or that this coordinator never leased (restart re-adoption) — because
// execution is deterministic: whoever finishes first wins, duplicates
// are idempotent.
func (c *Coordinator) Result(id string, res BundleResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	b, ok := c.bundles[id]
	if !ok {
		return ErrUnknownBundle
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
		c.releaseBuildingLocked(b)
		b.state = bundlePending
		b.worker = ""
		c.stats.BundlesFailed++
		if b.attempts >= maxAttempts {
			c.failBundleLocked(b, fmt.Errorf("bundle %s (%s/%d/%s): %w",
				b.proto.ID, b.job.req.Exp, b.proto.Spec, b.proto.Workload, err))
			return nil
		}
		c.queue = append(c.queue, b)
		return nil
	}
	if res.Err != "" {
		return fail(errors.New(res.Err))
	}
	rows, err := b.job.specs[b.proto.Spec].DecodeRows(res.Rows)
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
		label := fmt.Sprintf("bundle %s[%d]", j.req.Exp, b.proto.Spec)
		if b.proto.Workload != "" {
			label += " " + b.proto.Workload
		}
		j.progress(j.done, total, label)
	}
	if j.done == total {
		c.finishLocked(j)
	}
	return nil
}

// finishLocked merges a completed job's rows into final tables: each
// spec's rows appended bundle by bundle, workloads in canonical suite
// order, exactly the row order a whole-suite run produces, so the
// rendered tables are byte-identical to the direct path. The job is then
// forgotten.
func (c *Coordinator) finishLocked(j *job) {
	defer c.forgetLocked(j)
	defer close(j.doneCh)
	merged := make([]any, len(j.specs))
	for _, b := range j.bundles {
		si := b.proto.Spec
		m, err := sim.MergeRows(j.specs[si].Kind, merged[si], b.rows)
		if err != nil {
			j.err = err
			return
		}
		merged[si] = m
	}
	for si, spec := range j.specs {
		j.tables = append(j.tables, spec.Render(merged[si])...)
	}
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
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

// decodeBody decodes one request body of at most maxControlBody bytes
// into v. On failure it answers the request itself — 413 past the limit,
// 400 otherwise — and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := decodeJSON(http.MaxBytesReader(w, r.Body, maxControlBody), v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid %s: %w", what, err))
	}
	return err == nil
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, "lease request", &req) {
		return
	}
	if err := checkProto(req.Proto); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	lease, ok := c.lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, "heartbeat", &req) {
		return
	}
	if err := checkProto(req.Proto); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hb, err := c.heartbeat(r.PathValue("id"), req.Worker)
	switch {
	case errors.Is(err, ErrUnknownBundle):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrLeaseLost):
		writeError(w, http.StatusConflict, err)
	default:
		writeJSON(w, http.StatusOK, hb)
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var res BundleResult
	if !decodeBody(w, r, "result", &res) {
		return
	}
	if err := checkProto(res.Proto); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := c.Result(r.PathValue("id"), res); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
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

// readAllLimited guards peer-transfer reads: snapshots are tens of MB at
// most; a source that streams more than the cap is misbehaving and the
// transfer falls soft to the next source.
func readAllLimited(r io.Reader, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("response exceeds %d-byte snapshot cap", limit)
	}
	return data, nil
}

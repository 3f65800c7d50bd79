package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sharellc/internal/cluster"
	"sharellc/internal/lru"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

type state string

const (
	stateQueued    state = "queued"
	stateRunning   state = "running"
	stateDone      state = "done"
	stateFailed    state = "failed"
	stateCancelled state = "cancelled"
)

func (s state) terminal() bool {
	return s == stateDone || s == stateFailed || s == stateCancelled
}

// event is one SSE frame: either a state transition or a progress tick.
type event struct {
	Type  string `json:"type"` // "state" or "progress"
	State state  `json:"state,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Label string `json:"label,omitempty"`
}

// job tracks one submission through its lifecycle. All mutable fields
// are guarded by mu; doneCh closes exactly once on reaching a terminal
// state so waiters need no polling.
type job struct {
	ID      string
	Request sim.JobRequest
	Key     string

	mu        sync.Mutex
	state     state
	err       error
	tables    []*report.Table
	cacheHit  bool
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	history   []event
	subs      map[chan event]struct{}
	cancelReq bool

	doneCh chan struct{}
}

func (j *job) publish(ev event) {
	// Callers hold j.mu.
	j.history = append(j.history, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop rather than stall the run
		}
	}
}

// subscribe returns the event history so far plus a live channel, and an
// unsubscribe func. The channel is buffered; laggards lose events rather
// than block the worker.
func (j *job) subscribe() (history []event, live chan event, unsub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]event(nil), j.history...)
	live = make(chan event, 256)
	j.subs[live] = struct{}{}
	return history, live, func() {
		j.mu.Lock()
		delete(j.subs, live)
		j.mu.Unlock()
	}
}

// view renders the job as the API returns it: its tables only once it
// is done.
func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{ID: j.ID, Exp: j.Request.Exp, State: j.state, Cached: j.cacheHit, Created: j.created}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if started := j.started; !started.IsZero() {
		v.Started = &started
	}
	if finished := j.finished; !finished.IsZero() {
		v.Finished = &finished
	}
	if j.state == stateDone {
		v.Tables = j.tables
	}
	return v
}

// done returns a channel closed when the job reaches a terminal state.
func (j *job) done() <-chan struct{} { return j.doneCh }

// runner executes one experiment run. The indirection lets tests
// substitute a controllable runner for the real simulator.
type runner func(ctx context.Context, req sim.JobRequest, progress func(done, total int, label string)) ([]*report.Table, error)

// Config sizes the Manager.
type Config struct {
	Workers    int    // concurrent runs; <=0 means 1
	QueueDepth int    // queued (not yet running) jobs before 503; <=0 means 16
	CacheSize  int    // completed results retained; <=0 means 64
	runner     runner // tests substitute a runner; nil means the simulator or Coordinator.Run

	// StreamCache, when non-nil, supplies prepared workload streams to
	// every job's suite construction, so jobs that share (machine, seed,
	// scale, workloads) — even while differing in LLC size or policy —
	// build each stream at most once per daemon process. Its counters are
	// exported on /metrics as the sharesimd_stream_* series. Ignored when
	// a test substitutes the runner.
	StreamCache *streamcache.Cache

	// Coordinator, when non-nil, replaces the in-process runner with the
	// cluster scheduler: each job the Manager admits is handed to it
	// as is, decomposed into bundles and executed by polling workers,
	// with results merged byte-identically to the in-process run. The
	// Manager stays the only place a job is coalesced, cached and
	// cancelled. Its protocol endpoints are mounted on the server mux
	// and its counters join /metrics. Ignored when a test substitutes the
	// runner.
	Coordinator *cluster.Coordinator
}

// Manager owns the worker pool, the coalescing map, the job ledger and
// the result cache.
type Manager struct {
	cfg Config

	baseCtx  context.Context
	baseStop context.CancelFunc

	mu       sync.Mutex
	active   map[string]*job          // by request key, queued or running only
	finished *lru.Cache[string, *job] // terminal jobs by ID, the most recently used kept
	seq      int
	draining bool

	queue chan *job
	wg    sync.WaitGroup

	cache *lru.Cache[string, []*report.Table] // completed results, one cost unit each; guarded by mu
	met   *metrics
	// lanes is the process's lane memo, which every in-process job
	// shares; nil when jobs run elsewhere (a coordinator, a test runner).
	lanes *sim.LaneMemo
}

// NewManager starts cfg.Workers workers. Call Shutdown to drain them.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 64
	}
	var lanes *sim.LaneMemo
	if cfg.runner == nil {
		if cfg.Coordinator != nil {
			cfg.runner = cfg.Coordinator.Run
		} else {
			lanes = sim.NewLaneMemo()
			cfg.runner = defaultRunner(cfg.StreamCache, lanes)
		}
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		baseCtx:  ctx,
		baseStop: stop,
		active:   map[string]*job{},
		finished: lru.New[string, *job](int64(2*cfg.CacheSize+cfg.QueueDepth+cfg.Workers), nil),
		queue:    make(chan *job, cfg.QueueDepth),
		cache:    lru.New[string, []*report.Table](int64(cfg.CacheSize), nil),
		met:      newMetrics(),
		lanes:    lanes,
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

var (
	// errQueueFull is returned when the queue is at capacity.
	errQueueFull = errors.New("job queue full, retry later")
	// errDraining is returned after Shutdown has begun.
	errDraining = errors.New("server is draining, not accepting jobs")
)

// submit validates, dedupes and enqueues a request. The bool reports
// whether the returned job is fresh work (false = cache hit or coalesced
// onto an identical in-flight job).
func (m *Manager) submit(req sim.JobRequest) (*job, bool, error) {
	if err := req.Normalize(); err != nil {
		return nil, false, err
	}
	key := req.Key()

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.met.add(&m.met.rejected)
		return nil, false, errDraining
	}
	// Coalesce: an identical request is already queued or running.
	if live, ok := m.active[key]; ok {
		m.mu.Unlock()
		m.met.add(&m.met.coalesced)
		return live, false, nil
	}
	// Cache: an identical request already completed successfully.
	if tables, ok := m.cache.Get(key); ok {
		job := m.newJobLocked(req, key)
		now := time.Now()
		job.state = stateDone
		job.cacheHit = true
		job.tables = tables
		job.started, job.finished = now, now
		job.history = append(job.history, event{Type: "state", State: stateDone})
		close(job.doneCh)
		m.finished.Put(job.ID, job, 1)
		m.mu.Unlock()
		m.met.add(&m.met.cacheHits)
		return job, false, nil
	}
	job := m.newJobLocked(req, key)
	job.state = stateQueued
	job.history = append(job.history, event{Type: "state", State: stateQueued})
	m.active[key] = job
	m.mu.Unlock()

	select {
	case m.queue <- job:
		m.met.add(&m.met.cacheMisses)
		m.met.gauge(&m.met.queueDepth, 1)
		return job, true, nil
	default:
		m.mu.Lock()
		delete(m.active, key)
		m.mu.Unlock()
		m.met.add(&m.met.rejected)
		return nil, false, errQueueFull
	}
}

// newJobLocked allocates a job; caller holds m.mu. The job is found by
// ID while it is queued or running (m.active) and, once terminal, while
// the ledger (m.finished) keeps it.
func (m *Manager) newJobLocked(req sim.JobRequest, key string) *job {
	m.seq++
	return &job{
		ID:      fmt.Sprintf("job-%d", m.seq),
		Request: req,
		Key:     key,
		created: time.Now(),
		subs:    map[chan event]struct{}{},
		doneCh:  make(chan struct{}),
	}
}

// get looks a job up by ID: a live job is never dropped, and a terminal
// one is kept until 2×CacheSize+QueueDepth+Workers more recently used
// terminal jobs push it out of the ledger.
func (m *Manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.active {
		if j.ID == id {
			return j, true
		}
	}
	return m.finished.Get(id)
}

// cancel aborts a job. Queued jobs are finalized immediately; running
// jobs get their context cancelled and finalize when the replay loop
// observes it (bounded by the cancellation stride in internal/sharing).
func (m *Manager) cancel(id string) error {
	job, ok := m.get(id)
	if !ok {
		return fmt.Errorf("no such job %s", id)
	}
	job.mu.Lock()
	switch {
	case job.state.terminal():
		job.mu.Unlock()
		return nil
	case job.state == stateRunning:
		job.cancelReq = true
		cancel := job.cancel
		job.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default: // queued: mark so the worker skips it on dequeue
		job.cancelReq = true
		job.mu.Unlock()
		m.finalize(job, nil, context.Canceled)
		return nil
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.met.gauge(&m.met.queueDepth, -1)
		job.mu.Lock()
		skip := job.state.terminal() // cancelled while queued
		if !skip {
			ctx, cancel := context.WithCancel(m.baseCtx)
			job.state = stateRunning
			job.started = time.Now()
			job.cancel = cancel
			job.publish(event{Type: "state", State: stateRunning})
			job.mu.Unlock()

			m.met.gauge(&m.met.inflight, 1)
			tables, err := m.cfg.runner(ctx, job.Request, func(done, total int, label string) {
				job.mu.Lock()
				job.publish(event{Type: "progress", Done: done, Total: total, Label: label})
				job.mu.Unlock()
			})
			cancel()
			m.met.gauge(&m.met.inflight, -1)
			m.finalize(job, tables, err)
		} else {
			job.mu.Unlock()
		}
	}
}

// finalize records the terminal state, feeds the cache, moves the job
// from the coalescing map to the ledger and only then publishes the
// state, all under m.mu (lock order m.mu → job.mu). A client that has
// seen done therefore finds the key cached and gone from m.active: its
// next identical POST is a cache hit, never coalesced onto the finished
// job.
func (m *Manager) finalize(job *job, tables []*report.Table, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state.terminal() {
		return
	}
	now := time.Now()
	if job.started.IsZero() {
		job.started = now
	}
	job.finished = now
	switch {
	case err == nil:
		job.state = stateDone
		job.tables = tables
	case errors.Is(err, context.Canceled) || job.cancelReq:
		job.state = stateCancelled
		job.err = context.Canceled
	default:
		job.state = stateFailed
		job.err = err
	}
	state := job.state
	if state == stateDone {
		m.cache.Put(job.Key, tables, 1)
	}
	if m.active[job.Key] == job {
		delete(m.active, job.Key)
	}
	m.finished.Put(job.ID, job, 1)
	m.met.jobFinished(string(state), job.Request.Exp, job.finished.Sub(job.started).Seconds())
	job.publish(event{Type: "state", State: state})
	close(job.doneCh)
}

// Shutdown stops accepting work, cancels anything still queued, and
// waits for running jobs to drain. If ctx expires first, the base
// context is cancelled so in-flight replay loops abort promptly, then
// the workers are awaited unconditionally.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.mu.Unlock()

	close(m.queue)

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.baseStop() // yank running jobs; a replay polls its context every batchSize (2 Ki) accesses
		<-done
		return fmt.Errorf("drain deadline exceeded; running jobs cancelled: %w", ctx.Err())
	}
}

package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sharellc/internal/cluster"
	"sharellc/internal/report"
	"sharellc/internal/sim"
	"sharellc/internal/sim/streamcache"
)

type State string

const (
	stateQueued    State = "queued"
	stateRunning   State = "running"
	stateDone      State = "done"
	stateFailed    State = "failed"
	stateCancelled State = "cancelled"
)

func (s State) terminal() bool {
	return s == stateDone || s == stateFailed || s == stateCancelled
}

// Event is one SSE frame: either a state transition or a progress tick.
type Event struct {
	Type  string `json:"type"` // "state" or "progress"
	State State  `json:"state,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Label string `json:"label,omitempty"`
}

// Job tracks one submission through its lifecycle. All mutable fields
// are guarded by mu; doneCh closes exactly once on reaching a terminal
// state so waiters need no polling.
type Job struct {
	ID      string
	Request sim.JobRequest
	Key     string

	mu        sync.Mutex
	state     State
	err       error
	tables    []*report.Table
	cacheHit  bool
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc
	history   []Event
	subs      map[chan Event]struct{}
	cancelReq bool

	doneCh chan struct{}
}

func (j *Job) publish(ev Event) {
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
func (j *Job) subscribe() (history []Event, live chan Event, unsub func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]Event(nil), j.history...)
	live = make(chan Event, 256)
	j.subs[live] = struct{}{}
	return history, live, func() {
		j.mu.Lock()
		delete(j.subs, live)
		j.mu.Unlock()
	}
}

// snapshot returns the fields the HTTP layer renders.
func (j *Job) snapshot() (state State, errMsg string, tables []*report.Table, cached bool, created, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		errMsg = j.err.Error()
	}
	return j.state, errMsg, j.tables, j.cacheHit, j.created, j.started, j.finished
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Runner executes one experiment run. The indirection lets tests
// substitute a controllable runner for the real simulator.
type Runner func(ctx context.Context, req sim.JobRequest, progress func(done, total int, label string)) ([]*report.Table, error)

// Config sizes the Manager.
type Config struct {
	Workers    int // concurrent runs; <=0 means 1
	QueueDepth int // queued (not yet running) jobs before 503; <=0 means 16
	CacheSize  int // completed results retained; <=0 means 64
	Runner     Runner
	Now        func() time.Time // test hook; nil means time.Now

	// StreamCache, when non-nil, supplies prepared workload streams to
	// every job's suite construction, so jobs that share (machine, seed,
	// scale, workloads) — even while differing in LLC size or policy —
	// build each stream at most once per daemon process. Its counters are
	// exported on /metrics as the sharesimd_stream_* series. Ignored when
	// a custom Runner is set.
	StreamCache *streamcache.Cache

	// Coordinator, when non-nil, replaces the in-process runner with the
	// cluster scheduler: each job the Manager admits is handed to it
	// as is, decomposed into bundles and executed by polling workers,
	// with results merged byte-identically to the direct path. The
	// Manager stays the only place a job is coalesced, cached and
	// cancelled. Its protocol endpoints are mounted on the server mux
	// and its counters join /metrics. Ignored when a custom Runner is set.
	Coordinator *cluster.Coordinator
}

// Manager owns the worker pool, the coalescing map and the result cache.
type Manager struct {
	cfg Config
	now func() time.Time

	baseCtx  context.Context
	baseStop context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job // by ID, all ever submitted (bounded by cache + active)
	active   map[string]*Job // by request key, queued or running only
	order    []string        // job IDs oldest-first, for pruning
	seq      int
	draining bool

	queue chan *Job
	wg    sync.WaitGroup

	cache *resultCache
	met   *metrics
}

// newManager starts cfg.Workers workers. Call Shutdown to drain them.
func newManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 64
	}
	if cfg.Runner == nil {
		if cfg.Coordinator != nil {
			cfg.Runner = distributedRunner(cfg.Coordinator)
		} else {
			cfg.Runner = defaultRunner(cfg.Workers, cfg.StreamCache)
		}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		now:      now,
		baseCtx:  ctx,
		baseStop: stop,
		jobs:     map[string]*Job{},
		active:   map[string]*Job{},
		queue:    make(chan *Job, cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheSize),
		met:      newMetrics(),
	}
	if cfg.StreamCache != nil {
		m.met.streams = cfg.StreamCache.Stats
	}
	if cfg.Coordinator != nil {
		m.met.cluster = cfg.Coordinator.Stats
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

var (
	// ErrQueueFull is returned when the queue is at capacity.
	ErrQueueFull = errors.New("job queue full, retry later")
	// ErrDraining is returned after Shutdown has begun.
	ErrDraining = errors.New("server is draining, not accepting jobs")
)

// submit validates, dedupes and enqueues a request. The bool reports
// whether the returned job is fresh work (false = cache hit or coalesced
// onto an identical in-flight job).
func (m *Manager) submit(req sim.JobRequest) (*Job, bool, error) {
	if err := req.Normalize(); err != nil {
		return nil, false, err
	}
	key := req.Key()

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.met.add(&m.met.rejected)
		return nil, false, ErrDraining
	}
	// Coalesce: an identical request is already queued or running.
	if live, ok := m.active[key]; ok {
		m.mu.Unlock()
		m.met.add(&m.met.coalesced)
		return live, false, nil
	}
	// Cache: an identical request already completed successfully.
	if tables, ok := m.cache.get(key); ok {
		job := m.newJobLocked(req, key)
		now := m.now()
		job.state = stateDone
		job.cacheHit = true
		job.tables = tables
		job.started, job.finished = now, now
		job.history = append(job.history, Event{Type: "state", State: stateDone})
		close(job.doneCh)
		m.mu.Unlock()
		m.met.add(&m.met.cacheHits)
		return job, false, nil
	}
	job := m.newJobLocked(req, key)
	job.state = stateQueued
	job.history = append(job.history, Event{Type: "state", State: stateQueued})
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
		m.removeJobLocked(job.ID)
		m.mu.Unlock()
		m.met.add(&m.met.rejected)
		return nil, false, ErrQueueFull
	}
}

// newJobLocked allocates a job and registers it; caller holds m.mu.
func (m *Manager) newJobLocked(req sim.JobRequest, key string) *Job {
	m.seq++
	job := &Job{
		ID:      fmt.Sprintf("job-%d", m.seq),
		Request: req,
		Key:     key,
		created: m.now(),
		subs:    map[chan Event]struct{}{},
		doneCh:  make(chan struct{}),
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.pruneLocked()
	return job
}

// pruneLocked evicts the oldest terminal jobs once the ledger outgrows
// the cache budget, keeping memory bounded under sustained load.
func (m *Manager) pruneLocked() {
	limit := 2*m.cfg.CacheSize + m.cfg.QueueDepth + m.cfg.Workers
	for len(m.jobs) > limit {
		pruned := false
		for i, id := range m.order {
			j := m.jobs[id]
			if j == nil {
				m.order = append(m.order[:i], m.order[i+1:]...)
				pruned = true
				break
			}
			j.mu.Lock()
			term := j.state.terminal()
			j.mu.Unlock()
			if term {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return // everything live; let it ride
		}
	}
}

func (m *Manager) removeJobLocked(id string) {
	delete(m.jobs, id)
	for i, jid := range m.order {
		if jid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// cancel aborts a job. Queued jobs are finalized immediately; running
// jobs get their context cancelled and finalize when the replay loop
// observes it (bounded by the cancellation stride in internal/sharing).
func (m *Manager) cancel(id string) error {
	job, ok := m.Get(id)
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
			job.started = m.now()
			job.cancel = cancel
			job.publish(Event{Type: "state", State: stateRunning})
			job.mu.Unlock()

			m.met.gauge(&m.met.inflight, 1)
			tables, err := m.cfg.Runner(ctx, job.Request, func(done, total int, label string) {
				job.mu.Lock()
				job.publish(Event{Type: "progress", Done: done, Total: total, Label: label})
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

// finalize records the terminal state, feeds the cache, releases the
// coalescing slot and only then publishes the state, all under m.mu (lock
// order m.mu → job.mu, as in pruneLocked). A client that has seen done
// therefore finds the key cached and gone from m.active: its next
// identical POST is a cache hit, never coalesced onto the finished job.
func (m *Manager) finalize(job *Job, tables []*report.Table, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state.terminal() {
		return
	}
	now := m.now()
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
		m.cache.put(job.Key, tables)
	}
	if m.active[job.Key] == job {
		delete(m.active, job.Key)
	}
	m.met.jobFinished(string(state), job.Request.Exp, job.finished.Sub(job.started).Seconds())
	job.publish(Event{Type: "state", State: state})
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
		m.baseStop() // yank running jobs; replay polls every cancelStride refs
		<-done
		return fmt.Errorf("drain deadline exceeded; running jobs cancelled: %w", ctx.Err())
	}
}

// resultCache is a plain LRU over completed table sets.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recent
	items map[string]*list.Element // value: *cacheEntry
}

type cacheEntry struct {
	key    string
	tables []*report.Table
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *resultCache) get(key string) ([]*report.Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).tables, true
}

func (c *resultCache) put(key string, tables []*report.Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).tables = tables
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, tables: tables})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

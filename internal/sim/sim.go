// Package sim orchestrates the paper's experiments: it turns workload
// models into LLC reference streams (once per workload — the private
// hierarchy does not depend on the LLC, so one stream serves every LLC
// size and policy) and fans the replay passes out across CPUs.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sharellc/internal/cache"
	"sharellc/internal/sharing"
	"sharellc/internal/workloads"
)

// Config describes one experimental setup.
type Config struct {
	// Machine supplies the private-cache geometry (its LLC fields are
	// the default LLC; experiments usually override size per run).
	Machine cache.Config
	// Seed drives all workload generation and stochastic policies.
	Seed uint64
	// Scale multiplies workload region sizes and trace lengths; 1.0 is
	// the full-size suite, smaller values shrink everything
	// proportionally for quick runs against smaller LLCs.
	Scale float64
	// Models is the workload list; empty means the full suite.
	Models []workloads.Model
	// Shards bounds the replay workers inside each experiment cell
	// (sharing.Options.Shards, one lane per worker): 0 lets each
	// experiment budget the leftover CPUs across its fan-out, 1 = one
	// worker, and n > 1 asks for up to n workers per replay. Results are identical at
	// every setting; only wall-clock time changes.
	Shards int
	// Streams, when non-nil, supplies each prepared stream instead of a
	// direct BuildStream call — the hook through which the streamcache
	// package shares streams across suites and processes. The provider
	// receives the already-scaled model, so its result must be
	// bit-identical to BuildStream(m, machine, seed) for the same
	// arguments (the cache's byte-compare tests enforce this).
	Streams StreamProvider
	// Progress, when non-nil, is invoked after each stream finishes
	// preparing during NewSuite, with the running completion count, the
	// total stream count and the workload name. Callbacks may arrive
	// concurrently from the preparation workers. It reports only suite
	// construction; experiment fan-out progress goes through the suite's
	// own progress callback.
	Progress func(done, total int, label string)
}

// StreamProvider builds (or fetches) the prepared LLC reference stream
// for one workload on one private-hierarchy geometry and seed. The
// default provider wraps BuildStream; streamcache.Cache.Stream is the
// caching one.
type StreamProvider func(ctx context.Context, m workloads.Model, machine cache.Config, seed uint64) (*Stream, error)

// DefaultConfig is the paper's setup: the 4 MB-LLC machine (experiments
// take the LLC geometry as arguments), seed 1, full scale, full suite.
func DefaultConfig() Config {
	return Config{Machine: cache.DefaultConfig(), Seed: 1, Scale: 1}
}

// Stream is one workload's LLC reference stream with hierarchy stats.
type Stream struct {
	Model    workloads.Model
	Accesses []cache.AccessInfo // NextUse-annotated, dense BlockIDs assigned

	NumBlocks int    // distinct blocks in Accesses (BlockID range)
	TraceLen  uint64 // raw references generated
	L1Hits    uint64
	L2Hits    uint64
}

// Partitioner returns a sharing.Partitioner over this stream that builds
// a fresh counting-sort shard partition per call. No replay walks one;
// the bench module's partition probe times it.
func (s *Stream) Partitioner() sharing.Partitioner {
	return func(shards int) (*sharing.PartitionIndex, error) {
		return sharing.BuildPartition(s.Accesses, shards)
	}
}

// ReplayOptions bundles the stream's known distinct-block count, which
// skips a full-stream detection scan inside the replay, with the
// caller's worker bound and cancellation context. Every experiment
// replaying this stream should build its sharing.Options here so no
// stream-level knowledge is forgotten at any call site.
func (s *Stream) ReplayOptions(shards int, ctx context.Context) sharing.Options {
	return sharing.Options{Shards: shards, Ctx: ctx, NumBlocks: s.NumBlocks}
}

// BuildStream generates the model's trace, filters it through a fresh
// private hierarchy and annotates next-use indices.
func BuildStream(m workloads.Model, machine cache.Config, seed uint64) (*Stream, error) {
	if m.Threads > machine.Cores {
		return nil, fmt.Errorf("sim: workload %s has %d threads but machine has %d cores", m.Name, m.Threads, machine.Cores)
	}
	r, err := m.Generate(seed)
	if err != nil {
		return nil, err
	}
	stream, h, err := cache.FilterStream(r, machine)
	if err != nil {
		return nil, fmt.Errorf("sim: filtering %s: %w", m.Name, err)
	}
	numBlocks := cache.AnnotateNextUse(stream)
	refs, l1, l2, _ := h.Stats()
	return &Stream{Model: m, Accesses: stream, NumBlocks: numBlocks, TraceLen: refs, L1Hits: l1, L2Hits: l2}, nil
}

// Suite holds the prepared streams for one Config.
type Suite struct {
	Config  Config
	Streams []*Stream

	// ctx, when non-nil, cancels every experiment run on the suite: the
	// outer fan-out stops claiming cells and the inner replay loops
	// abort at their next poll (sharing.Options.Ctx). Set via
	// NewSuiteContext or BareSuite.
	ctx context.Context
	// progress, when non-nil, is invoked after each workload an
	// experiment fan-out finishes, with the running completion count, the
	// total, and the workload label. Set via withProgress; callbacks may
	// arrive concurrently from worker goroutines.
	progress func(done, total int, label string)
}

// ScaleModel is the one rule that scales a workload model to a run's
// scale: at scale 1 the model is used as given. A stream's cache key
// hashes the scaled model, so the suite, m1's mixes and the cluster's
// stream references agree on every hash only by scaling through here.
func ScaleModel(m workloads.Model, scale float64) workloads.Model {
	if scale != 1 {
		return m.Scaled(scale)
	}
	return m
}

// BareSuite returns a suite carrying cfg and ctx but no prepared
// streams: the suite a whole spec runs on, since it reads only the
// configuration and builds its own streams. It validates cfg as
// NewSuiteContext does. Running a per-workload spec on a bare suite is a
// programming error.
func BareSuite(ctx context.Context, cfg Config) (*Suite, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("sim: non-positive scale %v", cfg.Scale)
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	return &Suite{Config: cfg, ctx: ctx}, nil
}

// NewSuite prepares every workload's stream in parallel.
func NewSuite(cfg Config) (*Suite, error) {
	return NewSuiteContext(context.Background(), cfg)
}

// NewSuiteContext is NewSuite with a cancellation context: stream
// preparation aborts between workloads when ctx is cancelled, and the
// context is retained so every later experiment run on the suite is
// cancellable too.
func NewSuiteContext(ctx context.Context, cfg Config) (*Suite, error) {
	s, err := BareSuite(ctx, cfg)
	if err != nil {
		return nil, err
	}
	models := cfg.Models
	if len(models) == 0 {
		models = workloads.Suite()
	}
	scaled := make([]workloads.Model, len(models))
	for i, m := range models {
		scaled[i] = ScaleModel(m, cfg.Scale)
	}
	build := cfg.Streams
	if build == nil {
		build = func(_ context.Context, m workloads.Model, machine cache.Config, seed uint64) (*Stream, error) {
			return BuildStream(m, machine, seed)
		}
	}
	s.Streams = make([]*Stream, len(scaled))
	var done atomic.Int64
	err = parallelCapCtx(ctx, len(scaled), runtime.GOMAXPROCS(0), func(i int) error {
		st, err := build(ctx, scaled[i], cfg.Machine, cfg.Seed)
		if err != nil {
			return err
		}
		s.Streams[i] = st
		if cfg.Progress != nil {
			cfg.Progress(int(done.Add(1)), len(scaled), st.Model.Name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// withProgress returns a shallow copy of the suite that reports per-cell
// completion through fn (see the progress field for the contract). The
// prepared streams are shared, so the copy is cheap.
func (s *Suite) withProgress(fn func(done, total int, label string)) *Suite {
	c := *s
	c.progress = fn
	return &c
}

// context returns the suite's cancellation context, defaulting to
// Background for suites built without one.
func (s *Suite) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// perStream is the per-workload fan-out of every suite experiment: it
// runs rows on each prepared stream across the CPUs under the suite's
// context, reports each finished stream to the progress callback, and
// concatenates the rows in suite order. rows receives the per-replay
// worker bound (sharing.Options.Shards): the Config's explicit Shards
// when set, otherwise the CPUs left over once every stream has a worker,
// so the workload fan-out and the lane workers never oversubscribe the
// machine between them. A failure is labelled with what and the workload.
func perStream[R any](s *Suite, what string, rows func(st *Stream, shards int) ([]R, error)) ([]R, error) {
	return firstTable(perStreamTables(s, what, 1, func(st *Stream, shards int) ([][]R, error) {
		r, err := rows(st, shards)
		return [][]R{r}, err
	}))
}

// perStreamTables is perStream for an experiment of n tables: rows
// returns one row slice per table, and each table concatenates its
// slices in suite order.
func perStreamTables[R any](s *Suite, what string, n int, rows func(st *Stream, shards int) ([][]R, error)) ([][]R, error) {
	streams := len(s.Streams)
	shards := s.Config.Shards
	if shards == 0 {
		shards = leftoverShards(streams)
	}
	per := make([][][]R, streams)
	var done atomic.Int64
	err := parallelCapCtx(s.context(), streams, runtime.GOMAXPROCS(0), func(i int) error {
		st := s.Streams[i]
		r, err := rows(st, shards)
		if err != nil {
			return fmt.Errorf("%s %s: %w", what, st.Model.Name, err)
		}
		per[i] = r
		if s.progress != nil {
			s.progress(int(done.Add(1)), streams, st.Model.Name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]R, n)
	for t := range out {
		for _, r := range per {
			out[t] = append(out[t], r[t]...)
		}
	}
	return out, nil
}

// firstTable is the first table of a table-major result.
func firstTable[R any](tables [][]R, err error) ([]R, error) {
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// Stream returns the prepared stream for the named workload.
func (s *Suite) Stream(name string) (*Stream, error) {
	for _, st := range s.Streams {
		if st.Model.Name == name {
			return st, nil
		}
	}
	return nil, fmt.Errorf("sim: no prepared stream for workload %q", name)
}

// replayOpts is Stream.ReplayOptions under this suite's cancellation
// context, so no experiment call site can forget it.
func (s *Suite) replayOpts(st *Stream, shards int) sharing.Options {
	return st.ReplayOptions(shards, s.context())
}

// ShardBudget returns the per-replay worker bound that keeps n
// concurrent experiment runs within GOMAXPROCS — the same leftover-CPU
// division perStream applies inside a single experiment's fan-out. The
// sharesimd worker pool uses it to set Config.Shards for each of its n
// workers so that workers × replay workers never oversubscribes the
// machine.
func ShardBudget(n int) int { return leftoverShards(n) }

// leftoverShards divides GOMAXPROCS across cells concurrent cells,
// returning the per-cell shard budget (at least 1 = one worker).
func leftoverShards(cells int) int {
	if cells < 1 {
		cells = 1
	}
	n := runtime.GOMAXPROCS(0) / cells
	if n < 1 {
		n = 1
	}
	return n
}

// parallelCapCtx runs f(0..n-1) across up to cap workers under a
// cancellation context. The cap exists for callers that must split the
// CPU budget with nested parallelism (a multi-lane replay inside an
// experiment fan-out) and would otherwise oversubscribe. Work items are
// claimed from a lock-free atomic counter; the first error — including
// ctx's error once it is cancelled, checked before each item runs —
// stops further claims and is returned after all workers drain.
func parallelCapCtx(ctx context.Context, n, cap int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		stop  atomic.Bool
		once  sync.Once
		first error
	)
	for w := 0; w < max(1, min(cap, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				err := ctx.Err()
				if err == nil {
					err = f(i)
				}
				if err != nil {
					once.Do(func() { first = err; stop.Store(true) })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

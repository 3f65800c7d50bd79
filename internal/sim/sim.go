// Package sim orchestrates the paper's experiments: it turns workload
// models into LLC reference streams (once per workload — the private
// hierarchy does not depend on the LLC, so one stream serves every LLC
// size and policy) and fans the replay passes out across CPUs.
package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"sharellc/internal/cache"
	"sharellc/internal/coherence"
	"sharellc/internal/par"
	"sharellc/internal/sharing"
	"sharellc/internal/trace"
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
	// construction; RunExperiments reports each finished cell through
	// its own progress argument.
	Progress func(done, total int, label string)
	// Lanes, when non-nil, is the lane memo every experiment on the
	// suite consults before it replays a lane and fills after: suites
	// that share it replay each distinct lane over a stream once.
	// RunExperiments makes one per call when it is nil; a suite built
	// without one replays every lane.
	Lanes *LaneMemo
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

	// census is the coherence census of the raw trace, taken by the
	// build that made the stream, or nil for a stream decoded from a
	// snapshot (C1 then regenerates the trace to take it).
	census *coherence.Stats
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
// caller's cancellation context. Every experiment replaying this stream
// should build its sharing.Options here so no stream-level knowledge is
// forgotten at any call site. The int argument is ignored: the replay's
// lanes share the process's one worker pool (internal/par), and the
// argument stays only because the bench module compiles against this
// signature.
func (s *Stream) ReplayOptions(_ int, ctx context.Context) sharing.Options {
	return sharing.Options{Ctx: ctx, NumBlocks: s.NumBlocks}
}

// BuildStream generates the model's trace and makes its one pass over
// it: each raw batch feeds the coherence census (censusTee) and then the
// private hierarchy, whose LLC references it annotates with next-use
// indices and dense BlockIDs numbered through the model's block index.
func BuildStream(m workloads.Model, machine cache.Config, seed uint64) (*Stream, error) {
	if m.Threads > machine.Cores {
		return nil, fmt.Errorf("sim: workload %s has %d threads but machine has %d cores", m.Name, m.Threads, machine.Cores)
	}
	r, err := m.Generate(seed)
	if err != nil {
		return nil, err
	}
	tee := newCensusTee(r, &m)
	stream, h, err := cache.FilterStream(tee, machine)
	census := tee.close()
	if err != nil {
		return nil, fmt.Errorf("sim: filtering %s: %w", m.Name, err)
	}
	for i := range stream {
		stream[i].BlockID = m.BlockIndex(stream[i].Block)
	}
	numBlocks := cache.AnnotateNextUseIndexed(stream, m.FootprintBlocks())
	refs, l1, l2, _ := h.Stats()
	return &Stream{Model: m, Accesses: stream, NumBlocks: numBlocks, TraceLen: refs, L1Hits: l1, L2Hits: l2, census: &census}, nil
}

// censusTee is a raw trace passing through the coherence census on its
// way to its reader: every batch read through it is fed to a MESI
// directory keyed by the model's dense block index. It is the one census
// loop, whether the stream build reads the trace or C1 drains a
// regenerated one.
type censusTee struct {
	r   trace.Reader
	m   *workloads.Model
	dir *coherence.Directory
	ids []uint32 // the batch's dense block ids
}

// newCensusTee returns the tee over r, a trace Generate made for m.
func newCensusTee(r trace.Reader, m *workloads.Model) *censusTee {
	return &censusTee{r: r, m: m, dir: coherence.NewDirectory(m.FootprintBlocks(), m.Threads)}
}

// ReadBatch implements trace.batchReader.
func (t *censusTee) ReadBatch(dst []trace.Access) int {
	n := trace.ReadBatch(t.r, dst)
	if len(t.ids) < n {
		t.ids = make([]uint32, n)
	}
	ids := t.ids[:n]
	for i, a := range dst[:n] {
		ids[i] = t.m.BlockIndex(a.Addr.BlockID())
	}
	t.dir.Observe(dst[:n], ids)
	return n
}

// Next implements trace.Reader.
func (t *censusTee) Next() (trace.Access, bool) {
	var a [1]trace.Access
	ok := t.ReadBatch(a[:]) == 1
	return a[0], ok
}

// Err implements trace.Reader.
func (t *censusTee) Err() error { return t.r.Err() }

// close returns the census of everything read through the tee and hands
// the directory back to the mem pool.
func (t *censusTee) close() coherence.Stats {
	t.dir.Release()
	return t.dir.Stats()
}

// coherenceCensus is the census of st's raw trace: the build's, or, for
// a stream decoded from a snapshot, one taken by draining the tee over
// the regenerated trace, polling ctx per batch.
func (st *Stream) coherenceCensus(ctx context.Context, seed uint64) (coherence.Stats, error) {
	if st.census != nil {
		return *st.census, nil
	}
	r, err := st.Model.Generate(seed)
	if err != nil {
		return coherence.Stats{}, err
	}
	tee := newCensusTee(r, &st.Model)
	buf := make([]trace.Access, trace.ChunkSize)
	for n := len(buf); n == len(buf); {
		if err := ctx.Err(); err != nil {
			tee.close()
			return coherence.Stats{}, err
		}
		n = tee.ReadBatch(buf)
	}
	census := tee.close()
	return census, r.Err()
}

// Suite holds the prepared streams for one Config.
type Suite struct {
	Config  Config
	Streams []*Stream

	// ctx, when non-nil, cancels every experiment run on the suite: the
	// outer fan-out stops claiming cells and the inner replay loops
	// abort at their next poll (sharing.Options.Ctx). Set via
	// NewSuiteContext or bareSuite.
	ctx context.Context
}

// scaleModel is the one rule that scales a workload model to a run's
// scale: at scale 1 the model is used as given. A stream's cache key
// hashes the scaled model, so the suite, m1's mixes and the cluster's
// stream references agree on every hash only by scaling through here.
func scaleModel(m workloads.Model, scale float64) workloads.Model {
	if scale != 1 {
		return m.Scaled(scale)
	}
	return m
}

// bareSuite returns a suite carrying cfg and ctx but no prepared
// streams: the suite a whole spec runs on, since it reads only the
// configuration and builds its own streams. It validates cfg as
// NewSuiteContext does. Running a per-workload spec on a bare suite is a
// programming error.
func bareSuite(ctx context.Context, cfg Config) (*Suite, error) {
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
	s, err := bareSuite(ctx, cfg)
	if err != nil {
		return nil, err
	}
	models := cfg.Models
	if len(models) == 0 {
		models = workloads.Suite()
	}
	scaled := make([]workloads.Model, len(models))
	for i, m := range models {
		scaled[i] = scaleModel(m, cfg.Scale)
	}
	build := cfg.streams()
	s.Streams = make([]*Stream, len(scaled))
	var done atomic.Int64
	err = par.For(ctx, len(scaled), func(i int) error {
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

// streams is cfg's stream provider, or BuildStream when it has none.
func (cfg Config) streams() StreamProvider {
	if cfg.Streams != nil {
		return cfg.Streams
	}
	return func(_ context.Context, m workloads.Model, machine cache.Config, seed uint64) (*Stream, error) {
		return BuildStream(m, machine, seed)
	}
}

// provider serves the suite's prepared streams, and any other stream
// (another seed's, a model the suite lacks) from the suite's own
// provider: the streams a cell over the suite reads.
func (s *Suite) provider() StreamProvider {
	return func(ctx context.Context, m workloads.Model, machine cache.Config, seed uint64) (*Stream, error) {
		for _, st := range s.Streams {
			if st.Model == m && seed == s.Config.Seed && machine == s.Config.Machine {
				return st, nil
			}
		}
		return s.Config.streams()(ctx, m, machine, seed)
	}
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
// runs rows on each prepared stream on the process's worker pool
// (par.For, which the replay's lanes share, so the two levels never
// oversubscribe the machine between them) under the suite's context and
// concatenates the rows in suite order. A failure is labelled with what
// and the workload.
func perStream[R any](s *Suite, what string, rows func(st *Stream) ([]R, error)) ([]R, error) {
	return firstTable(perStreamTables(s, what, 1, func(st *Stream) ([][]R, error) {
		r, err := rows(st)
		return [][]R{r}, err
	}))
}

// perStreamTables is perStream for an experiment of n tables: rows
// returns one row slice per table, and each table concatenates its
// slices in suite order.
func perStreamTables[R any](s *Suite, what string, n int, rows func(st *Stream) ([][]R, error)) ([][]R, error) {
	streams := len(s.Streams)
	per := make([][][]R, streams)
	err := par.For(s.context(), streams, func(i int) error {
		st := s.Streams[i]
		r, err := rows(st)
		if err != nil {
			return fmt.Errorf("%s %s: %w", what, st.Model.Name, err)
		}
		per[i] = r
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

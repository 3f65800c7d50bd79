package sharing

// Fused multi-policy replay.
//
// The paper's headline tables are sweeps: the same prepared reference
// stream is replayed once per (policy, geometry) cell. ReplayMulti runs
// one call over the stream that drives N independent LLC models
// ("lanes"), one per configuration. Each lane keeps its own cache,
// policy and residency census — shared/private classification depends
// on each lane's own eviction schedule, so no census state can be shared
// across lanes — but the stream's block, BlockID and core/store columns
// are decoded once per call and read by every lane.
//
// Every lane is one stream-order policy pass (runPolicyPassBatch): the
// lane's cache and policy probe a chunk of accesses into packed outcome
// words (cache.ReplayBatchCols, the policy's monomorphic kernel when it
// has one), and the lane's census consumes the words before the next
// chunk. The policy call sequence is exactly a stream-order walk's, so
// cross-set policy state (dueling counters, shared RNG draws, global
// tables) evolves as it would alone, and a hooked lane's hooks see the
// stream order they observe. Lanes run in parallel on the process's
// worker pool (par.For), one whole lane per item.
//
// Options.Tier picks the census each pass keeps:
//
//   - Tracked runs the SoA residency tracker (tracker.go) over the
//     outcome words: per line a hit count, a core/store word and the
//     resident BlockID, closed into degree, read-only/read-write and
//     block-census counters at each eviction and at stream end;
//   - SharedHitsOnly keeps one word per line and classifies each
//     residency against the stream's streak column (streak.go);
//   - CountsOnly counts hits from the outcome words.
//
// A lane the engine cannot encode is rejected before any lane state is
// allocated: a lane with more lines than the outcome word's 30-bit line
// index, or a stream with more cores than the tracker's packed core word
// (see ReplayMulti).
//
// Every lane's Result is bit-identical to a stream-order walk of that
// lane alone: the pass performs exactly its cache transitions in stream
// order, and the census exactly the tracker transitions of those
// outcomes. The package's tests keep that walk, with a struct-Residency
// tracker, as the reference the engine is diffed against
// (reference_test.go), and internal/reuse holds LRU lanes to a census
// derived from stack distances alone.

import (
	"context"
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
	"sharellc/internal/par"
)

// LLCConfig describes one lane of a fused replay: an LLC geometry, a
// policy factory and optional per-lane hooks.
//
// NewPolicy must return a fresh, identically-initialized instance on
// every call (the standard policy.Factory contract). ReplayMulti calls
// it exactly once per lane and runs that instance's policy pass, which
// is what lets callers stash the built instance (e.g. to read protector
// stats after the replay). A lane whose pass succeeds releases the
// instance's state arrays to the mem pool (cache.Releaser), so only its
// counters stay readable afterwards.
type LLCConfig struct {
	Size      int // LLC capacity in bytes
	Ways      int
	NewPolicy func() cache.Policy
	// Hooks observe this lane only, in stream order; they ride the
	// lane's policy pass (see hooked).
	Hooks Hooks
}

// lane is the engine-side state of one configuration.
type lane struct {
	cfg    LLCConfig
	sets   int
	inst   cache.Policy // the instance the lane's policy pass runs
	result *Result
}

// ReplayMulti replays stream once through every configuration in
// configs and returns one Result per configuration, in order, each
// bit-identical to a stream-order walk of that configuration alone. It
// is the package's only replay entry point; a single replay is a
// one-config call.
//
// The stream must have contiguous Index values starting at 0 (as
// produced by cache.FilterStream); the replay validates this because the
// oracle keys its knowledge by stream index. Streams whose BlockIDs were
// never assigned (hand-built, or filtered without annotation) are copied
// and assigned on the fly.
//
// Options apply to every lane; hooks are per-lane (LLCConfig.Hooks).
// How many lanes replay at once depends only on the free workers of the
// process's pool and never affects results.
//
// ReplayMulti returns an error, before it allocates any lane state, for
// a lane with more than maxLines lines and a stream with more than
// soaMaxCores cores.
func ReplayMulti(stream []cache.AccessInfo, configs []LLCConfig, opt Options) ([]*Result, error) {
	if len(configs) == 0 {
		return nil, nil
	}
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	lanes := make([]*lane, len(configs))
	for i, c := range configs {
		if c.NewPolicy == nil {
			return nil, fmt.Errorf("sharing: ReplayMulti config %d has no policy factory", i)
		}
		sets, err := cache.Geometry(c.Size, c.Ways)
		if err != nil {
			return nil, err
		}
		if sets*c.Ways > maxLines {
			return nil, fmt.Errorf("sharing: config %d has %d lines; a replay lane holds at most %d", i, sets*c.Ways, maxLines)
		}
		inst := c.NewPolicy()
		if c.Hooks.any() {
			inst = newHooked(inst, c.Hooks)
		}
		lanes[i] = &lane{cfg: c, sets: sets, inst: inst}
	}
	if err := replayLanes(stream, lanes, opt); err != nil {
		return nil, err
	}
	results := make([]*Result, len(lanes))
	for i, l := range lanes {
		results[i] = l.result
	}
	return results, nil
}

// maxLines is the most lines one lane may hold: the outcome word's
// 30-bit line index (cache.BatchLine).
const maxLines = int(cache.BatchLine) + 1

// replayLanes is the fused engine behind ReplayMulti: it decodes the
// stream's pass columns once, then runs every lane's policy pass as one
// item of par.For, leaving each lane's Result in lane.result. A pass
// walks the whole stream with one lane's cache, policy and census
// resident, so a worker claims whole lanes: the lanes of a sweep are its
// parallelism, and the workloads of an experiment are the caller's
// (sim's perStream), both drawing on the one pool. The first failing
// lane stops further claims.
func replayLanes(stream []cache.AccessInfo, lanes []*lane, opt Options) error {
	stream, numBlocks := ensureBlockIDs(stream, opt)
	mem.Hugepages(stream)
	cols := passCols{
		blk: mem.Grab[uint64](len(stream)),
		id:  mem.Grab[uint32](len(stream)),
	}
	if opt.Tier == Tracked {
		cols.meta = mem.Grab[uint8](len(stream))
	}
	cores, err := decodePassColumns(stream, cols)
	if err != nil {
		return err
	}
	if cores > soaMaxCores {
		return fmt.Errorf("sharing: stream has %d cores; the replay tracks at most %d", cores, soaMaxCores)
	}
	// Every shared-hit pass reads the one streak column.
	if opt.Tier == SharedHitsOnly {
		cols.streak = mem.Grab[uint32](len(stream))
		buildStreaks(stream, numBlocks, cols.streak)
	}

	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	err = par.For(ctx, len(lanes), func(t int) error {
		return runPolicyPassBatch(stream, numBlocks, cols, lanes[t], opt)
	})
	if err != nil {
		return err
	}
	mem.Release(cols.blk)
	mem.Release(cols.id)
	mem.Release(cols.meta)
	mem.Release(cols.streak)
	return nil
}

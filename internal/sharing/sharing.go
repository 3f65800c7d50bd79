// Package sharing implements the paper's characterization substrate: it
// replays an LLC reference stream through a cache under a chosen
// replacement policy and tracks, for every block *residency* (fill →
// eviction), which cores touched the block while it was resident.
//
// A residency is **shared** when at least two distinct cores access the
// block at the LLC during the residency (the fill access counts); it is
// **private** otherwise. This is the classification the paper uses to
// split LLC hit volume into shared and private contributions and to define
// the target of the fill-time sharing oracle and predictors.
//
// The replay engine keys every per-block structure by the dense
// cache.AccessInfo.BlockID instead of hashing the sparse 64-bit block
// number, so the hot loop indexes flat slices. ReplayMulti is the one
// entry point: it replays the stream once through any number of LLC
// configurations, sharding per-set-independent lanes by LLC set index,
// and every lane's result is bit-identical to the sequential walk of
// that configuration alone (see multi.go).
package sharing

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"sharellc/internal/cache"
)

// Residency records one block's stay in the LLC.
// Field order packs the struct into exactly 64 bytes (one cache line):
// the replay's hot path loads and stores millions of Residencies at
// random line indices, and at 64 bytes each such touch costs one cache
// line instead of the two a padded layout straddles.
type Residency struct {
	Block      uint64
	FillIndex  int64  // stream index of the access that filled the block
	FillPC     uint64 // PC that triggered the fill
	Hits       uint64 // hits received during the residency
	EvictIndex int64  // stream index of the evicting access, or -1 if alive at stream end
	coreMask   [2]uint64
	id         uint32 // dense BlockID of Block within the replayed stream
	FillCore   uint8  // core that triggered the fill
	written    bool   // any store touched the residency (fill included)
	Predicted  bool   // the PredictShared hint attached at fill time
}

// addCore marks core as having touched the residency.
func (r *Residency) addCore(core uint8) {
	r.coreMask[core>>6] |= 1 << (core & 63)
}

// degree returns the number of distinct cores that accessed the block
// during the residency (at least 1: the filler).
func (r Residency) degree() int {
	return bits.OnesCount64(r.coreMask[0]) + bits.OnesCount64(r.coreMask[1])
}

// Shared reports whether the residency was accessed by ≥ 2 distinct cores.
func (r Residency) Shared() bool { return r.degree() >= 2 }

// Evicted reports whether the residency ended by eviction rather than by
// the stream running out.
func (r Residency) Evicted() bool { return r.EvictIndex >= 0 }

// Hooks lets callers observe and steer one lane of a replay
// (LLCConfig.Hooks). Any field may be nil.
type Hooks struct {
	// PredictShared is consulted at fill time. Its result is recorded on
	// the residency for accuracy accounting and, when the lane's policy
	// has a FillHinted method (core.Protector and the lanes embedding
	// it), handed to FillHinted as the fill's sharing hint in place of
	// the policy's own Fill.
	PredictShared func(a cache.AccessInfo) bool
	// OnResidencyEnd fires when a residency closes, either on eviction
	// or at end of stream. Predictors use it as their training signal.
	OnResidencyEnd func(r Residency)
	// OnAccess fires for every stream access, before the cache acts on
	// it. Observers that maintain their own per-block state (e.g. the
	// coherence directory feeding the coherence-assisted predictor) hang
	// off this hook.
	OnAccess func(a cache.AccessInfo)
}

// any reports whether at least one hook is installed. Hooks observe the
// replay in stream order, so their presence pins a lane to the
// sequential walk.
func (h Hooks) any() bool {
	return h.PredictShared != nil || h.OnResidencyEnd != nil || h.OnAccess != nil
}

// Options configures a ReplayMulti call; every field applies to all of
// its lanes.
type Options struct {
	// Shards bounds the replay's parallelism: 0 picks a worker count
	// automatically (GOMAXPROCS, capped), 1 runs a single worker, and
	// n > 1 allows up to n concurrent workers (rounded down to a power
	// of two and clamped to the set count). It never affects results —
	// the set-partition granularity of the sharded walk is picked
	// separately for cache locality (see blockShards), so even one
	// worker walks a long stream shard by shard.
	Shards int

	// Ctx, when non-nil, makes the replay cancellable: the hot loop
	// polls Ctx.Err() every cancelStride accesses (per shard in the
	// parallel replay) and returns it, so a multi-second replay stops
	// within microseconds of cancellation. A nil Ctx replays to
	// completion. Partial counters from an aborted replay are discarded
	// by every caller, so cancellation cannot corrupt results.
	Ctx context.Context

	// Partitioner, when non-nil, supplies the counting-sort shard
	// partition of the stream (see PartitionIndex) for the requested
	// shard count instead of rebuilding it inside the replay. The
	// partition depends only on (stream, shard count), so one cached
	// instance serves every lane of every experiment on the same
	// stream; sim.Stream attaches exactly such a cache. A partitioner
	// returning a partition for the wrong shard count or stream length
	// is a programming error and fails the replay.
	Partitioner Partitioner

	// NumBlocks, when positive, asserts that the stream already carries
	// dense BlockIDs in [0, NumBlocks) (cache.AssignBlockIDs), letting
	// the replay skip the full-stream detection scan of
	// cache.EnsureBlockIDs — a measurable saving when many experiments
	// replay the same cached stream. sim.Stream records the count at
	// build time and passes it here. Zero means "unknown": the replay
	// scans and, if needed, annotates a copy. A wrong positive count is
	// a programming error: too small panics on the first out-of-range
	// ID (the per-block arrays are sized by it), too large only wastes
	// memory.
	NumBlocks int
}

// cancelStride is how many accesses a replay processes between context
// polls — frequent enough for sub-millisecond cancellation latency,
// rare enough (one atomic load per 8K accesses) to stay invisible in
// profiles. Must be a power of two.
const cancelStride = 1 << 13

// PredStats accumulates fill-time prediction outcomes against residency
// ground truth (positive class = shared).
type PredStats struct {
	TP, FP, TN, FN uint64
}

// Total returns the number of classified residencies.
func (p PredStats) Total() uint64 { return p.TP + p.FP + p.TN + p.FN }

// Accuracy returns (TP+TN)/total, or 0 when empty.
func (p PredStats) Accuracy() float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.TP+p.TN) / float64(t)
}

// Precision returns TP/(TP+FP), or 0 when no positive predictions.
func (p PredStats) Precision() float64 {
	if p.TP+p.FP == 0 {
		return 0
	}
	return float64(p.TP) / float64(p.TP+p.FP)
}

// Recall returns TP/(TP+FN) — the fraction of truly shared residencies
// the predictor caught — or 0 when no positives exist.
func (p PredStats) Recall() float64 {
	if p.TP+p.FN == 0 {
		return 0
	}
	return float64(p.TP) / float64(p.TP+p.FN)
}

// Result aggregates one replay.
type Result struct {
	Policy   string
	Accesses uint64
	Hits     uint64
	Misses   uint64

	// Hit volume split by the final classification of the residency the
	// hit landed in (the paper's F1/F2 metric).
	SharedHits  uint64
	PrivateHits uint64

	// Residency population.
	Residencies       uint64
	SharedResidencies uint64

	// Shared residencies and their hits split by write behaviour:
	// read-only sharing (no store during the residency) vs. read-write
	// sharing (actively communicated data).
	ROSharedResidencies uint64
	RWSharedResidencies uint64
	ROSharedHits        uint64
	RWSharedHits        uint64

	// DegreeResidencies[d] counts residencies of sharing degree d;
	// DegreeHits[d] counts the hits those residencies received.
	// Index 0 is unused (degree starts at 1).
	DegreeResidencies []uint64
	DegreeHits        []uint64

	// Block-population view: distinct blocks seen at the LLC and the
	// subset that was shared in at least one residency.
	DistinctBlocks       uint64
	DistinctSharedBlocks uint64

	// Pred accumulates fill-time prediction outcomes when a
	// PredictShared hook was installed.
	Pred PredStats
}

// MissRate returns misses/accesses, or 0 for an empty stream.
func (r *Result) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// SharedHitFraction returns the fraction of all hits that landed in
// shared residencies, or 0 when there were no hits.
func (r *Result) SharedHitFraction() float64 {
	if r.Hits == 0 {
		return 0
	}
	return float64(r.SharedHits) / float64(r.Hits)
}

// Block census states, kept in a flat per-BlockID array instead of the
// map[block]bool the tracker previously hashed into.
const (
	blockUnseen  = uint8(0)
	blockPrivate = uint8(1)
	blockShared  = uint8(2)
)

// replayState is the residency tracker behind a sequential lane walk and
// each shard walk of an engine lane. All per-block structures are flat
// slices indexed by the dense BlockID or by the cache's (set, way)
// geometry; in the sharded walk the slices are shared between shards,
// whose index ranges are disjoint by construction (a block, and
// therefore its set and its ID, belongs to exactly one shard).
type replayState struct {
	res *Result

	// lines shadows the cache's line array (sets*ways, row-major by
	// set): lines[set*ways+way] is the open residency of the block
	// currently cached there.
	lines []Residency
	// active maps BlockID → 1 + its line index while the block is
	// resident; 0 means not resident.
	active []uint32
	// blockState is the block census: blockUnseen, blockPrivate (seen,
	// never shared) or blockShared (shared in ≥1 residency).
	blockState []uint8
	// cols is an engine lane's SoA residency tracker, which replaces
	// lines entirely (see tracker.go); the sequential walk leaves it nil.
	cols *soaCols

	hooks   Hooks
	hadPred bool
	hint    *hookHint       // the lane's policy when it takes the hook's hint; else nil
	ctx     context.Context // nil = not cancellable
}

// fillHinter is a policy whose fill takes its sharing hint beside the
// access: core.Protector and the lanes that embed it.
type fillHinter interface {
	cache.Policy
	FillHinted(set, way int, a *cache.AccessInfo, shared bool)
}

// hookHint wraps a hooked sequential lane's fillHinter: step stores the
// PredictShared verdict in shared, and Fill hands it to FillHinted.
type hookHint struct {
	fillHinter
	shared bool
}

// Fill implements cache.Policy.
func (h *hookHint) Fill(set, way int, a *cache.AccessInfo) { h.FillHinted(set, way, a, h.shared) }

// closeRes finalizes a residency at evictIndex (-1 = alive at stream end)
// and folds it into the counters.
func (st *replayState) closeRes(r *Residency, evictIndex int64) {
	res := st.res
	r.EvictIndex = evictIndex
	deg := r.degree()
	shared := deg >= 2
	if shared {
		st.blockState[r.id] = blockShared
	} else if st.blockState[r.id] == blockUnseen {
		st.blockState[r.id] = blockPrivate
	}
	res.Residencies++
	res.DegreeResidencies[deg]++
	res.DegreeHits[deg] += r.Hits
	if shared {
		res.SharedResidencies++
		res.SharedHits += r.Hits
		if r.written {
			res.RWSharedResidencies++
			res.RWSharedHits += r.Hits
		} else {
			res.ROSharedResidencies++
			res.ROSharedHits += r.Hits
		}
	} else {
		res.PrivateHits += r.Hits
	}
	if st.hadPred {
		switch {
		case r.Predicted && shared:
			res.Pred.TP++
		case r.Predicted && !shared:
			res.Pred.FP++
		case !r.Predicted && shared:
			res.Pred.FN++
		default:
			res.Pred.TN++
		}
	}
	if st.hooks.OnResidencyEnd != nil {
		st.hooks.OnResidencyEnd(*r)
	}
}

// step advances the tracker by one access: hook dispatch, hit/fill
// bookkeeping and residency maintenance. a points into the caller's
// stream and is never written through — streams are shared across
// lanes and concurrent replays, so the multi-word record travels by
// reference, and a fill-time prediction travels beside it (st.hint).
// It is the per-access body of the sequential walk (runSeqLane).
//
// step reports whether the access hit but does not touch the
// aggregate Accesses/Hits/Misses counters: those are three dependent
// read-modify-writes through the heap per access, so every caller
// accumulates them in register-resident locals and flushes once per
// loop (flushCounts) — same sums, no per-access store traffic. The
// per-residency Hits counter stays here: it is residency state, not an
// aggregate.
func (st *replayState) step(llc *cache.SetAssoc, ways int, a *cache.AccessInfo) (bool, error) {
	if st.hooks.OnAccess != nil {
		st.hooks.OnAccess(*a)
	}
	id := a.BlockID
	if li := st.active[id]; li != 0 {
		r := &st.lines[li-1]
		// The tracker already knows this is a hit and exactly which
		// (set, way) holds the block, so the policy is notified
		// directly and the cache's tag scan — a redundant dependent
		// load at a random set index, on the majority path of every
		// replay — is skipped. The skipped llc.Access would only have
		// re-derived the same (set, way) and updated state that is
		// not observable through Result: the LLC's own hit counters.
		// The miss path trusts the tracker symmetrically
		// (cache.FillRef skips the tag scan re-confirming absence); what
		// remains checked every eviction is that the cache's victim
		// matches the tracker's open residency for that line.
		// SetOf is a mask of the block address — recovering the set from
		// li would be a hardware divide by the runtime ways value, on the
		// majority path of every lane-step.
		set := llc.SetOf(a.Block)
		llc.Policy().Hit(set, int(li-1)-set*ways, a)
		r.Hits++
		r.addCore(a.Core)
		if a.Write {
			r.written = true
		}
		return true, nil
	}
	var pred bool
	if st.hadPred {
		pred = st.hooks.PredictShared(*a)
		if st.hint != nil {
			st.hint.shared = pred
		}
	}
	out := llc.FillRef(a)
	li := out.Set*ways + out.Way
	if out.Evicted {
		victim := &st.lines[li]
		if victim.Block != out.Victim || st.active[victim.id] != uint32(li+1) {
			return false, fmt.Errorf("sharing: evicted block %d has no tracked residency", out.Victim)
		}
		st.active[victim.id] = 0
		st.closeRes(victim, int64(a.Index))
	}
	st.lines[li] = Residency{
		Block:      a.Block,
		FillIndex:  int64(a.Index),
		FillCore:   a.Core,
		FillPC:     a.PC,
		id:         id,
		written:    a.Write,
		Predicted:  pred,
		EvictIndex: -1,
	}
	st.lines[li].addCore(a.Core)
	st.active[id] = uint32(li + 1)
	return false, nil
}

// flushCounts folds a caller's per-loop access/hit accumulators into
// the aggregate result counters — the once-per-loop counterpart of the
// per-access counting that step no longer does.
func (st *replayState) flushCounts(accesses, hits uint64) {
	st.res.Accesses += accesses
	st.res.Hits += hits
	st.res.Misses += accesses - hits
}

// run replays the whole stream through llc in place, validating the
// Index invariant.
func (st *replayState) run(llc *cache.SetAssoc, stream []cache.AccessInfo) error {
	ways := llc.Ways()
	var hits uint64
	for i := range stream {
		if st.ctx != nil && i&(cancelStride-1) == 0 {
			if err := st.ctx.Err(); err != nil {
				return err
			}
		}
		if int(stream[i].Index) != i {
			return fmt.Errorf("sharing: stream index %d at position %d; use cache.FilterStream ordering", stream[i].Index, i)
		}
		hit, err := st.step(llc, ways, &stream[i])
		if err != nil {
			return err
		}
		if hit {
			hits++
		}
	}
	st.flushCounts(uint64(len(stream)), hits)
	return nil
}

// closeAlive closes the residencies still alive at stream end. A line
// holds an open residency iff its EvictIndex is -1 — closed residencies
// are immediately overwritten by the fill that evicted them, and
// never-filled lines hold the zero value.
//
// Closure order is observable only through the OnResidencyEnd hook
// (counters are order-independent sums and the block census transitions
// are sticky), so only hooked replays pay for sorting the survivors into
// fill order; at stream end the survivors are the cache's full
// occupancy, so the sort is measurable.
//
// After closing, each survivor's slot is retired (EvictIndex set to
// evictRetired — the hooked copies keep the public -1 "alive at stream
// end" value) and its active entry cleared. That restores the
// scratch invariants the pool relies on (see scratch.go): no line slot
// claims an open residency and the active table is all zero, so both
// arrays can seed the next replay without a clearing pass.
func (st *replayState) closeAlive() {
	// Survivors are at most the cache's capacity, and at stream end
	// usually all of it.
	alive := make([]*Residency, 0, len(st.lines))
	for i := range st.lines {
		if r := &st.lines[i]; r.EvictIndex == -1 {
			alive = append(alive, r)
		}
	}
	if st.hooks.OnResidencyEnd != nil {
		// Fill indices are unique, so the order is total.
		slices.SortFunc(alive, func(a, b *Residency) int { return cmp.Compare(a.FillIndex, b.FillIndex) })
	}
	for _, r := range alive {
		st.closeRes(r, -1)
		st.active[r.id] = 0
		r.EvictIndex = evictRetired
	}
}

// census folds the block-population view of blockState into res.
func census(res *Result, blockState []uint8) {
	for _, s := range blockState {
		if s == blockUnseen {
			continue
		}
		res.DistinctBlocks++
		if s == blockShared {
			res.DistinctSharedBlocks++
		}
	}
}

// maxDegree bounds the degree histograms (the paper's machine models top
// out at far fewer cores; 128 matches the Residency core mask width).
const maxDegree = 128

// newResult builds an empty Result.
func newResult(policy string) *Result {
	return &Result{
		Policy:            policy,
		DegreeResidencies: make([]uint64, maxDegree+1),
		DegreeHits:        make([]uint64, maxDegree+1),
	}
}

// ensureBlockIDs resolves the stream's dense-ID annotation: an
// Options.NumBlocks assertion skips the detection scan entirely,
// otherwise cache.EnsureBlockIDs scans (and annotates a copy if the
// stream was hand-built).
func ensureBlockIDs(stream []cache.AccessInfo, opt Options) ([]cache.AccessInfo, int) {
	if opt.NumBlocks > 0 {
		return stream, opt.NumBlocks
	}
	return cache.EnsureBlockIDs(stream)
}

// autoShards picks the automatic worker count for ReplayMulti: one
// worker per available CPU (capped), and none at all for streams too
// short to amortize the partitioning pass.
func autoShards(streamLen int) int {
	if streamLen < 1<<15 {
		return 1
	}
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	return n
}

// floorPow2 rounds n down to a power of two (n must be ≥ 1).
func floorPow2(n int) int {
	for n&(n-1) != 0 {
		n &= n - 1
	}
	return n
}

// resolveShards turns an Options.Shards request into the effective
// worker count for a replay over streamLen accesses against a cache
// with sets sets: 0 picks automatically, and the result is clamped to
// the set count and rounded down to a power of two.
func resolveShards(streamLen, sets int, opt Options) int {
	shards := opt.Shards
	if shards == 0 {
		shards = autoShards(streamLen)
	}
	if shards > sets {
		shards = sets
	}
	if shards > 1 {
		shards = floorPow2(shards)
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// mergeLane folds the per-shard partial results of one lane into its
// final Result, bit-identical to the sequential walk: counters are
// order-independent sums and the block census comes from the shared
// blockState array.
func mergeLane(policyName string, parts []*Result, blockState []uint8) *Result {
	merged := newResult(policyName)
	for _, r := range parts {
		merged.Accesses += r.Accesses
		merged.Hits += r.Hits
		merged.Misses += r.Misses
		merged.SharedHits += r.SharedHits
		merged.PrivateHits += r.PrivateHits
		merged.Residencies += r.Residencies
		merged.SharedResidencies += r.SharedResidencies
		merged.ROSharedResidencies += r.ROSharedResidencies
		merged.RWSharedResidencies += r.RWSharedResidencies
		merged.ROSharedHits += r.ROSharedHits
		merged.RWSharedHits += r.RWSharedHits
		for d := range r.DegreeResidencies {
			merged.DegreeResidencies[d] += r.DegreeResidencies[d]
			merged.DegreeHits[d] += r.DegreeHits[d]
		}
	}
	census(merged, blockState)
	return merged
}

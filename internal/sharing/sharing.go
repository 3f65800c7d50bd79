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
// entry point: it replays the stream through any number of LLC
// configurations, each as one stream-order policy pass whose residency
// census consumes the pass's outcome words chunk by chunk (see
// multi.go). Every lane's result is bit-identical to a plain
// stream-order walk of that configuration alone, which the package's
// tests keep as their reference.
package sharing

import (
	"cmp"
	"context"
	"math/bits"
	"slices"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// Residency records one block's stay in the LLC, as a hooked lane's
// OnResidencyEnd receives it. Field order packs the struct into exactly
// 64 bytes (one cache line), so touching one at a random line index
// costs one cache line instead of the two a padded layout straddles.
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
// (LLCConfig.Hooks). Either field may be nil.
type Hooks struct {
	// PredictShared is consulted at every fill, before the victim
	// choice. When the lane's policy has a FillHinted method
	// (core.Protector and the lanes embedding it), its result is handed
	// to FillHinted as the fill's sharing hint in place of the policy's
	// own Fill.
	PredictShared func(a cache.AccessInfo) bool
	// OnResidencyEnd fires when a residency closes, either on eviction
	// or at end of stream. Predictors use it as their training signal.
	OnResidencyEnd func(r Residency)
}

// any reports whether at least one hook is installed.
func (h Hooks) any() bool {
	return h.PredictShared != nil || h.OnResidencyEnd != nil
}

// hooked is the policy of a lane with hooks: the lane's own policy
// instance behind the hooks. Embedding it as a cache.Policy hides its
// NewBatchKernel, so the lane's policy pass calls Hit, Victim and Fill
// in stream order — the order the hooks observe. Per miss PredictShared
// is asked once, before the victim choice, and its verdict goes to the
// base's FillHinted when it has one. Each line's open Residency is
// tracked beside the policy so OnResidencyEnd fires at every eviction,
// and for the survivors in fill order once the pass ends
// (endSurvivors). The lane's Result still comes from the tier's census.
type hooked struct {
	cache.Policy
	hooks      Hooks
	fillHinted func(set, way int, a *cache.AccessInfo, shared bool) // nil = plain Fill

	ways  int
	lines []Residency // open iff EvictIndex == -1

	// shared is the current miss's verdict; predicted reports that Victim
	// already asked for it.
	shared    bool
	predicted bool
}

func newHooked(base cache.Policy, h Hooks) *hooked {
	w := &hooked{Policy: base, hooks: h}
	if fh, ok := base.(interface {
		FillHinted(set, way int, a *cache.AccessInfo, shared bool)
	}); ok && h.PredictShared != nil {
		w.fillHinted = fh.FillHinted
	}
	return w
}

// Attach implements cache.Policy.
func (w *hooked) Attach(sets, ways int) {
	w.Policy.Attach(sets, ways)
	w.ways = ways
	w.lines = make([]Residency, sets*ways)
	mem.Hugepages(w.lines)
}

// Hit implements cache.Policy.
func (w *hooked) Hit(set, way int, a *cache.AccessInfo) {
	r := &w.lines[set*w.ways+way]
	r.Hits++
	r.addCore(a.Core)
	if a.Write {
		r.written = true
	}
	w.Policy.Hit(set, way, a)
}

// predict asks PredictShared for the current miss's verdict.
func (w *hooked) predict(a *cache.AccessInfo) {
	if w.hooks.PredictShared != nil {
		w.shared = w.hooks.PredictShared(*a)
	}
	w.predicted = true
}

// Victim implements cache.Policy.
func (w *hooked) Victim(set int, a *cache.AccessInfo) int {
	w.predict(a)
	return w.Policy.Victim(set, a)
}

// Fill implements cache.Policy: fill the base, end the residency the
// fill displaces, then open the new one.
func (w *hooked) Fill(set, way int, a *cache.AccessInfo) {
	if !w.predicted {
		w.predict(a)
	}
	w.predicted = false
	if w.fillHinted != nil {
		w.fillHinted(set, way, a, w.shared)
	} else {
		w.Policy.Fill(set, way, a)
	}
	r := &w.lines[set*w.ways+way]
	if r.EvictIndex == -1 {
		w.end(r, int64(a.Index))
	}
	*r = Residency{Block: a.Block, FillIndex: int64(a.Index), FillPC: a.PC, EvictIndex: -1,
		id: a.BlockID, FillCore: a.Core, written: a.Write}
	r.addCore(a.Core)
}

// end closes r at evictIndex (-1 = alive at stream end) for the hook.
func (w *hooked) end(r *Residency, evictIndex int64) {
	r.EvictIndex = evictIndex
	if w.hooks.OnResidencyEnd != nil {
		w.hooks.OnResidencyEnd(*r)
	}
}

// endSurvivors ends the residencies still open after the policy pass, in
// fill order (fill indices are unique, so the order is total).
func (w *hooked) endSurvivors() {
	var alive []*Residency
	for i := range w.lines {
		if r := &w.lines[i]; r.EvictIndex == -1 {
			alive = append(alive, r)
		}
	}
	slices.SortFunc(alive, func(a, b *Residency) int { return cmp.Compare(a.FillIndex, b.FillIndex) })
	for _, r := range alive {
		w.end(r, -1)
	}
}

// Options configures a ReplayMulti call; every field applies to all of
// its lanes.
type Options struct {
	// Ctx, when non-nil, makes the replay cancellable: every walk polls
	// Ctx.Err() once per chunk of batchSize accesses and returns it, so
	// a multi-second replay stops within microseconds of cancellation.
	// A nil Ctx replays to completion. Partial counters from an aborted
	// replay are discarded by every caller, so cancellation cannot
	// corrupt results.
	Ctx context.Context

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

	// Tier selects how much of each lane's Result the replay computes
	// (see Tier). The zero value is the full tracked census.
	Tier Tier
}

// Tier is the share of a Result a replay computes. Every tier runs each
// lane as its stream-order policy pass and differs only in the census
// the pass keeps; every tier refuses the same lanes and streams (see
// ReplayMulti), and every field a tier fills equals the tracked
// replay's.
type Tier uint8

const (
	// Tracked fills every Result field: the pass runs the SoA residency
	// tracker and its close census (degrees, read-only/read-write
	// splits, distinct blocks).
	Tracked Tier = iota
	// SharedHitsOnly fills Policy, Accesses, Hits, Misses, SharedHits,
	// PrivateHits, Residencies (= Misses) and SharedResidencies, zero
	// elsewhere. The pass classifies each residency from a per-line hit
	// count and the stream's streak column (streak.go).
	SharedHitsOnly
	// CountsOnly fills Policy, Accesses, Hits and Misses, zero
	// elsewhere. The pass counts hits from the outcome words.
	CountsOnly
)

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

// replayState is the residency tracker of one tracked lane. Its
// structures are flat slices indexed by the dense BlockID or by the
// cache's (set, way) geometry.
type replayState struct {
	res *Result

	// blockState is the block census: blockUnseen, blockPrivate (seen,
	// never shared) or blockShared (shared in ≥1 residency).
	blockState []uint8
	// cols is the lane's SoA residency tracker (see tracker.go).
	cols *soaCols
}

// flushCounts folds an advance loop's access/hit accumulators into the
// aggregate result counters, once per chunk instead of three dependent
// read-modify-writes through the heap per access.
func (st *replayState) flushCounts(accesses, hits uint64) {
	st.res.Accesses += accesses
	st.res.Hits += hits
	st.res.Misses += accesses - hits
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

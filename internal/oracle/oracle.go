// Package oracle implements the paper's generic sharing oracle study: a
// two-pass experiment that quantifies, for any base replacement policy,
// the headroom available from perfect fill-time knowledge of sharing.
//
// Pass 1 replays the LLC stream under the bare base policy. Pass 2
// replays the identical stream with the base policy wrapped in Hinted —
// the sharing-aware protector (internal/core) reading each fill's hint
// from a SharedHints column: whether another core touches the block
// within a residency-scale horizon. This matches the paper's oracle
// definition: "the LLC controller [can] accurately predict, at the time a
// block is filled into the LLC, whether the block will be shared during
// its residency in the LLC". The hint is a pure trace property, so it
// stays defined wherever the protected run's fills diverge from the base
// run's. Both passes are lanes of one fused replay, and neither carries a
// hook: the protected lane runs the engine's two-phase split like any
// other cross-set policy.
package oracle

import (
	"context"
	"fmt"
	"sync"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/sharing"
	"sharellc/internal/trace"
)

// Result pairs the two passes of one oracle study.
type Result struct {
	Base   *sharing.Result // pass 1: bare policy
	Oracle *sharing.Result // pass 2: policy + oracle protection
	Stats  core.Stats      // protector intervention counters from pass 2
}

// MissReduction returns the fractional reduction in LLC misses achieved
// by adding the oracle: (baseMisses - oracleMisses) / baseMisses. It is
// negative when protection hurt (possible for already-sharing-friendly
// policies), and 0 for a missless base run.
func (r *Result) MissReduction() float64 {
	if r.Base.Misses == 0 {
		return 0
	}
	return float64(int64(r.Base.Misses)-int64(r.Oracle.Misses)) / float64(r.Base.Misses)
}

// HorizonFactor scales the sharing-lookahead horizon: a block is hinted
// shared at stream index i when another core touches it within
// HorizonFactor × (LLC capacity in blocks) stream positions. An LLC
// residency spans roughly one capacity's worth of fills, and fills are a
// fraction of stream accesses, so a small multiple of the capacity is the
// natural residency-scale window.
const HorizonFactor = 4

// SharedHints computes, for every position i of the LLC stream, whether
// block stream[i].Block is accessed by a core other than stream[i].Core
// within the next horizon stream positions. This is the oracle's
// knowledge: a pure trace property, so it stays valid at whatever point
// the protected run's fills diverge from the base run's (unlike
// residency-outcome bits, which are only defined for the base schedule's
// own fills).
func SharedHints(stream []cache.AccessInfo, horizon int64) []bool {
	return hintColumns(stream, []int64{horizon})[0]
}

// hintColumns computes the SharedHints column of every horizon in one
// backward pass. Position i's cross-core successor is the next access to
// its block by another core: when the block's next access comes from
// another core it is that access, and when it comes from the same core it
// is that access's own successor, because no access to the block lies
// between the two. So the pass needs, per block, only the nearest later
// access and its core (first) and that access's successor (second), and
// i's successor is first or second as the cores differ or agree.
//
// Streams without BlockIDs (hand-built) are copied and assigned them on
// the fly.
func hintColumns(stream []cache.AccessInfo, horizons []int64) [][]bool {
	stream, numBlocks := cache.EnsureBlockIDs(stream)
	cols := make([][]bool, len(horizons))
	for k := range cols {
		cols[k] = make([]bool, len(stream))
	}
	sp, _ := laterPool.Get().(*[]later)
	if sp == nil || cap(*sp) < numBlocks {
		s := make([]later, numBlocks)
		sp = &s
	}
	state := (*sp)[:numBlocks]
	for b := range state {
		state[b] = later{first: cache.NoNextUse, second: cache.NoNextUse}
	}
	for i := len(stream) - 1; i >= 0; i-- {
		a := &stream[i]
		st := &state[a.BlockID]
		next := st.second
		if st.core != a.Core {
			next = st.first
		}
		if next != cache.NoNextUse {
			for k, h := range horizons {
				cols[k][i] = int64(next)-int64(i) <= h
			}
		}
		*st = later{first: int32(i), second: next, core: a.Core}
	}
	laterPool.Put(sp)
	return cols
}

// later is hintColumns' per-block state: the positions of the block's
// nearest later access (first, by core) and of that access's cross-core
// successor (second), cache.NoNextUse for none. Positions are int32
// like the record's own (cache.MaxStreamLen).
type later struct {
	first, second int32
	core          uint8
}

// laterPool recycles hintColumns' per-block state. A sweep builds a
// column per workload per horizon; fresh state each time would be garbage
// the heap grows by until the next collection.
var laterPool sync.Pool

// horizonOf is the sharing horizon, in stream positions, of a factor at
// one LLC size (see HorizonFactor).
func horizonOf(llcSize, factor int) int64 {
	return int64(factor) * int64(llcSize/trace.BlockSize)
}

// Hinted is the policy of an oracle lane: a core.Protector whose fill at
// stream position i is hinted shared iff hints[i]. The hint travels with
// the policy, not through a replay hook, so the lane is hook-free and
// rides the engine's two-phase split: its stream-order policy pass
// presents the fills in the sequential walk's order, which is all the
// Protector's cross-set hint-rate gate needs.
type Hinted struct {
	*core.Protector
	hints []bool
}

// NewHinted wraps base in a core.Protector under opts, hinted from
// hints: a SharedHints column of the stream the lane replays.
func NewHinted(base cache.Policy, opts core.Options, hints []bool) *Hinted {
	return &Hinted{Protector: core.NewProtectorOpts(base, opts), hints: hints}
}

// Fill implements cache.Policy.
func (h *Hinted) Fill(set, way int, a *cache.AccessInfo) {
	h.FillHinted(set, way, a, h.hints[a.Index])
}

// protectedLane builds the pass-2 lane for one base-policy factory,
// stashing the protector so its intervention counters can be read after
// the fused replay. A Protector keeps cross-set state, so the lane calls
// NewPolicy exactly once (the LLCConfig contract) and the stash is filled
// exactly once.
func protectedLane(llcSize, llcWays int, newPolicy func() cache.Policy, opts core.Options, hints []bool, stash **core.Protector) sharing.LLCConfig {
	return sharing.LLCConfig{Size: llcSize, Ways: llcWays,
		NewPolicy: func() cache.Policy {
			h := NewHinted(newPolicy(), opts, hints)
			*stash = h.Protector
			return h
		}}
}

// RunMultiPolicies runs the two-pass oracle study for every base-policy
// factory in one fused replay over the stream: 2n lanes (n bare pass-1
// lanes plus n protected pass-2 lanes) share the stream walk, and the
// sharing hints are computed once — they are a trace property, identical
// for every policy at the same horizon. Results are returned in factory
// order, each bit-identical to the study of that factory alone — a
// one-factory call is the single-policy study. newPolicy factories must
// return a fresh instance on each call (the two passes must not share
// trained state). ropt carries the replay tuning (Shards, Partitioner,
// Cores, NumBlocks — see sharing.Options); its Ctx is overridden by ctx,
// and cancelling ctx aborts the study at the replay's next poll.
func RunMultiPolicies(ctx context.Context, stream []cache.AccessInfo, llcSize, llcWays int, factories []func() cache.Policy, opts core.Options, horizonFactor int, ropt sharing.Options) ([]*Result, error) {
	if horizonFactor < 1 {
		return nil, fmt.Errorf("oracle: horizon factor %d < 1", horizonFactor)
	}
	n := len(factories)
	hints := SharedHints(stream, horizonOf(llcSize, horizonFactor))
	configs := make([]sharing.LLCConfig, 2*n)
	prots := make([]*core.Protector, n)
	for i, f := range factories {
		configs[i] = sharing.LLCConfig{Size: llcSize, Ways: llcWays, NewPolicy: f}
		configs[n+i] = protectedLane(llcSize, llcWays, f, opts, hints, &prots[i])
	}
	ropt.Ctx = ctx
	results, err := sharing.ReplayMulti(stream, configs, ropt)
	if err != nil {
		return nil, fmt.Errorf("oracle: fused study: %w", err)
	}
	out := make([]*Result, n)
	for i := range out {
		out[i] = &Result{Base: results[i], Oracle: results[n+i], Stats: prots[i].Stats()}
	}
	return out, nil
}

// RunMultiHorizons sweeps the sharing horizon for one base policy in one
// fused replay: a single bare pass-1 lane plus one protected lane per
// horizon factor. One pass builds every factor's hint column. The
// returned results (one per factor, in
// order) share the same Base, and each matches a one-factory
// RunMultiPolicies at that factor (the A4 ablation). ropt is treated
// exactly as in RunMultiPolicies.
func RunMultiHorizons(ctx context.Context, stream []cache.AccessInfo, llcSize, llcWays int, newPolicy func() cache.Policy, opts core.Options, factors []int, ropt sharing.Options) ([]*Result, error) {
	for _, f := range factors {
		if f < 1 {
			return nil, fmt.Errorf("oracle: horizon factor %d < 1", f)
		}
	}
	n := len(factors)
	horizons := make([]int64, n)
	for i, f := range factors {
		horizons[i] = horizonOf(llcSize, f)
	}
	hints := hintColumns(stream, horizons)
	configs := make([]sharing.LLCConfig, n+1)
	configs[0] = sharing.LLCConfig{Size: llcSize, Ways: llcWays, NewPolicy: newPolicy}
	prots := make([]*core.Protector, n)
	for i := range factors {
		configs[i+1] = protectedLane(llcSize, llcWays, newPolicy, opts, hints[i], &prots[i])
	}
	ropt.Ctx = ctx
	results, err := sharing.ReplayMulti(stream, configs, ropt)
	if err != nil {
		return nil, fmt.Errorf("oracle: fused horizon sweep: %w", err)
	}
	out := make([]*Result, n)
	for i := range out {
		out[i] = &Result{Base: results[0], Oracle: results[i+1], Stats: prots[i].Stats()}
	}
	return out, nil
}

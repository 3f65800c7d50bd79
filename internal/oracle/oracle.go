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
// run's. Lanes builds both passes as lanes of one fused replay, several
// studies sharing their base lanes and hint columns, and no lane carries
// a hook: a protected lane runs the engine's stream-order policy pass
// like any other lane. Over an LRU base (up to 64 ways) its policy pass
// runs core's protected-LRU batch kernel, which reads the hint column
// through Hinted's core.LaneHinter methods; over other bases it runs the
// generic batch loop over Hinted's per-call methods.
package oracle

import (
	"fmt"
	"slices"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/mem"
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
// own fills). The column is the caller's own: it never comes from or
// goes back to the mem pool.
func SharedHints(stream []cache.AccessInfo, horizon int64) []bool {
	col := make([]bool, len(stream))
	hintColumns(stream, 0, []int64{horizon}, [][]bool{col})
	return col
}

// hintColumns fills cols[k], a zeroed column of len(stream), with the
// SharedHints column of horizons[k], every horizon in one backward pass.
// Position i's cross-core successor is the next access to its block by
// another core: when the block's next access comes from another core it
// is that access, and when it comes from the same core it is that
// access's own successor, because no access to the block lies
// between the two. So the pass needs, per block, only the nearest later
// access and its core (first) and that access's successor (second), and
// i's successor is first or second as the cores differ or agree.
//
// numBlocks > 0 asserts that the stream's BlockIDs are dense in
// [0, numBlocks) (sim.Stream.NumBlocks); 0 scans, and streams without
// BlockIDs (hand-built) are copied and assigned them on the fly.
func hintColumns(stream []cache.AccessInfo, numBlocks int, horizons []int64, cols [][]bool) {
	if numBlocks <= 0 {
		stream, numBlocks = cache.EnsureBlockIDs(stream)
	}
	state := mem.Grab[later](numBlocks)
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
	mem.Release(state)
}

// later is hintColumns' per-block state: the positions of the block's
// nearest later access (first, by core) and of that access's cross-core
// successor (second), cache.NoNextUse for none. Positions are int32
// like the record's own (cache.MaxStreamLen).
type later struct {
	first, second int32
	core          uint8
}

// Horizon is the sharing horizon, in stream positions, of a factor at
// one LLC size (see HorizonFactor).
func Horizon(llcSize, factor int) int64 {
	return int64(factor) * int64(llcSize/trace.BlockSize)
}

// hinted is the policy of an oracle lane: a core.Protector whose fill at
// stream position i is hinted shared iff hints[i]. The hint travels with
// the policy, not through a replay hook, so the lane is hook-free: its
// stream-order policy pass presents the fills in the sequential walk's
// order, which is all the Protector's cross-set hint-rate gate needs.
type hinted struct {
	*core.Protector
	hints []bool
}

// Fill implements cache.Policy.
func (h *hinted) Fill(set, way int, a *cache.AccessInfo) {
	h.FillHinted(set, way, a, h.LaneHint(a))
}

// NewBatchKernel implements cache.batchPolicy: the Protector's
// protected-LRU kernel over an LRU base, the generic loop (nil) otherwise.
func (h *hinted) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	return h.LRUKernel(c, h)
}

// Release implements cache.Releaser: the Protector's state and its
// base's go back to the mem pool. The hint column is not the lane's to
// release: Lanes' collect releases it.
func (h *hinted) Release() {
	h.hints = nil
	h.Protector.Release()
}

// LaneHint implements core.LaneHinter: the hint column at the access's
// stream position.
func (h *hinted) LaneHint(a *cache.AccessInfo) bool { return h.hints[a.Index] }

// LaneHit implements core.LaneHinter: a hint column learns nothing.
func (h *hinted) LaneHit(uint32, *cache.AccessInfo) {}

// LaneEvict implements core.LaneHinter.
func (h *hinted) LaneEvict(uint32) {}

// LaneFill implements core.LaneHinter.
func (h *hinted) LaneFill(uint32, *cache.AccessInfo) {}

// Cell is one protected lane of an oracle study: base lane Base wrapped
// in a core.Protector under Opts and hinted from the SharedHints column
// at Factor × the base's capacity (see HorizonFactor).
type Cell struct {
	Base   int
	Opts   core.Options
	Factor int
}

// Lanes builds the lanes of a fused oracle study over stream: the bare
// bases, unchanged, then one protected lane per cell. numBlocks is the
// stream's distinct-block count when known, or 0 (see hintColumns). One
// backward pass builds the hint column of every distinct horizon: the
// column is a trace property, shared by every cell at that horizon
// whatever its policy, ways or options. A caller may append lanes of its own and replay them
// all in one sharing.ReplayMulti call; collect then maps that replay's
// results to one Result per cell, in cell order, each bit-identical to
// the cell replayed alone. The hint columns come from the mem pool, and
// collect, which a caller calls once and only after the replay
// succeeded, hands them back. Every base's NewPolicy must return a fresh
// instance on each call: the two passes must not share trained state.
func Lanes(stream []cache.AccessInfo, numBlocks int, bases []sharing.LLCConfig, cells []Cell) (lanes []sharing.LLCConfig, collect func([]*sharing.Result) []*Result, err error) {
	var horizons []int64
	col := make([]int, len(cells)) // cell → index of its hint column
	for i, c := range cells {
		if c.Factor < 1 {
			return nil, nil, fmt.Errorf("oracle: horizon factor %d < 1", c.Factor)
		}
		h := Horizon(bases[c.Base].Size, c.Factor)
		if col[i] = slices.Index(horizons, h); col[i] < 0 {
			col[i] = len(horizons)
			horizons = append(horizons, h)
		}
	}
	hints := make([][]bool, len(horizons))
	for k := range hints {
		hints[k] = mem.Grab[bool](len(stream))
	}
	hintColumns(stream, numBlocks, horizons, hints)
	n := len(bases)
	lanes = append(make([]sharing.LLCConfig, 0, n+len(cells)), bases...)
	// A Protector keeps cross-set state, so a lane calls NewPolicy exactly
	// once (the LLCConfig contract), and its protector is stashed there
	// for the intervention counters.
	prots := make([]*core.Protector, len(cells))
	for i, c := range cells {
		b := bases[c.Base]
		lanes = append(lanes, sharing.LLCConfig{Size: b.Size, Ways: b.Ways,
			NewPolicy: func() cache.Policy {
				h := &hinted{core.NewProtectorOpts(b.NewPolicy(), c.Opts), hints[col[i]]}
				prots[i] = h.Protector
				return h
			}})
	}
	return lanes, func(results []*sharing.Result) []*Result {
		for k, col := range hints {
			mem.Release(col)
			hints[k] = nil
		}
		out := make([]*Result, len(cells))
		for i, c := range cells {
			out[i] = &Result{Base: results[c.Base], Oracle: results[n+i], Stats: prots[i].Stats()}
		}
		return out
	}, nil
}

// Package oracle implements the paper's generic sharing oracle study: a
// two-pass experiment that quantifies, for any base replacement policy,
// the headroom available from perfect fill-time knowledge of sharing.
//
// Pass 1 replays the LLC stream under the bare base policy. Pass 2
// replays the identical stream with the base policy wrapped in a
// core.Lane — the sharing-aware protector (internal/core) hinted by a
// Hints column: whether another core touches the block within a
// residency-scale horizon. This matches the paper's oracle definition:
// "the LLC controller [can] accurately predict, at the time a block is
// filled into the LLC, whether the block will be shared during its
// residency in the LLC". The hint is a pure trace property, so it stays
// defined wherever the protected run's fills diverge from the base run's.
// Columns builds the column of every distinct horizon in one pass, and
// the experiment's lane builder (internal/sim) replays both passes as
// lanes of one fused replay, several studies sharing their base lanes
// and columns. No lane carries a hook: over an LRU base (up to 64 ways)
// a protected lane's policy pass runs core's protected-LRU batch kernel,
// over other bases the generic batch loop over core.Lane's methods.
package oracle

import (
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
func (r *Result) MissReduction() float64 { return MissReduction(r.Base, r.Oracle) }

// MissReduction is the fractional reduction in misses of a protected
// pass over its base pass (see Result.MissReduction).
func MissReduction(base, protected *sharing.Result) float64 {
	if base.Misses == 0 {
		return 0
	}
	return float64(int64(base.Misses)-int64(protected.Misses)) / float64(base.Misses)
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

// Columns returns the SharedHints column of every horizon, in horizon
// order, all built in one backward pass. numBlocks is the stream's
// distinct-block count when known, or 0 (see hintColumns). The columns
// come from the mem pool: the caller hands each back with mem.Release
// once no replay reads it. With no horizons it makes no pass.
func Columns(stream []cache.AccessInfo, numBlocks int, horizons []int64) [][]bool {
	if len(horizons) == 0 {
		return nil
	}
	cols := make([][]bool, len(horizons))
	for k := range cols {
		cols[k] = mem.Grab[bool](len(stream))
	}
	hintColumns(stream, numBlocks, horizons, cols)
	return cols
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

// Hints is the hint source of an oracle lane (core.Lane): the fill at
// stream position i is hinted shared iff Hints[i]. It learns nothing from
// the residencies, and the column is not the lane's to release.
type Hints []bool

// LaneHint implements core.LaneHinter: the column at the access's stream
// position.
func (h Hints) LaneHint(a *cache.AccessInfo) bool { return h[a.Index] }

// LaneHit implements core.LaneHinter.
func (Hints) LaneHit(uint32, *cache.AccessInfo) {}

// LaneEvict implements core.LaneHinter.
func (Hints) LaneEvict(uint32) {}

// LaneFill implements core.LaneHinter.
func (Hints) LaneFill(uint32, *cache.AccessInfo) {}

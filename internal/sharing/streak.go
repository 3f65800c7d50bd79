package sharing

// The shared-hit tier (Options.Tier == SharedHitsOnly).
//
// A residency is shared when a second core touches its block between the
// fill and the eviction. Which accesses a residency covers depends on the
// lane — its fill is a miss and it takes every access to the block up to
// the next miss — but who touches the block next is a property of the
// stream alone. buildStreaks records it once per replay as the streak
// column: streak[p] counts the accesses to p's block from p on, p
// included, before the first access to that block by a core other than
// p's (math.MaxUint32 when no other core touches the block again).
//
// A residency filled at p that received h hits covers exactly the block's
// accesses p, q1, …, qh — every access to a resident block hits it, and
// the next access after qh is the miss of a later residency. Accesses p
// through the streak's last one are p's core's; the access at offset
// streak[p] is another core's. So the residency is shared iff h ≥
// streak[p]. Each lane's policy pass keeps one word per line — the fill's
// streak in the high half, the hits since the fill in the low half — and
// classifies a residency when an evicting miss closes it, or when the
// stream ends with it open. That is the whole of the tier's tracking: no
// core mask, no block table and no partition.

import (
	"math"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// buildStreaks fills the streak column of stream (see the file comment)
// with one reverse walk. Its only scratch is one pooled word per block:
// the streak of the block's next access, and that access's core + 1 in
// the low byte (0 = no later access; replayLanes has already refused
// streams past soaMaxCores cores).
func buildStreaks(stream []cache.AccessInfo, numBlocks int, streak []uint32) {
	next := mem.Grab[uint64](numBlocks)
	for p := len(stream) - 1; p >= 0; p-- {
		a := &stream[p]
		c := uint64(a.Core) + 1
		n := next[a.BlockID]
		k := uint32(math.MaxUint32)
		switch {
		case n == 0: // the block's last access
		case n&0xff != c: // the next access is another core's
			k = 1
		case n>>32 != math.MaxUint32:
			k = uint32(n>>32) + 1
		}
		streak[p] = k
		next[a.BlockID] = uint64(k)<<32 | c
	}
	mem.Release(next)
}

// sharedCounts is one shared-hit pass's per-line words and counters.
// lines[li] is the open residency of line li, the fill's streak << 32 |
// hits since the fill; 0 is an empty line (a streak is at least 1).
type sharedCounts struct {
	lines                               []uint64
	hits, sharedHits, sharedResidencies uint64
}

// closeWord classifies the residency of word x: shared iff its hits
// reach its fill's streak. It returns the residency's shared count (0 or
// 1) and shared hits.
func closeWord(x uint64) (residencies, hits uint64) {
	if h := x & math.MaxUint32; h >= x>>32 {
		return 1, h
	}
	return 0, 0
}

// advance folds one chunk's outcome words into the lines: a hit bumps
// its line's count, a miss closes the residency it evicts (if any) and
// opens its own from streak, the chunk's slice of the streak column.
func (c *sharedCounts) advance(out, streak []uint32) {
	lines := c.lines
	streak = streak[:len(out)]
	var hits, sharedHits, sharedResidencies uint64
	for k, w := range out {
		li := w & cache.BatchLine
		x := lines[li]
		if w&cache.BatchHit != 0 {
			lines[li] = x + 1
			hits++
			continue
		}
		lines[li] = uint64(streak[k]) << 32
		if x != 0 {
			r, h := closeWord(x)
			sharedResidencies += r
			sharedHits += h
		}
	}
	c.hits += hits
	c.sharedHits += sharedHits
	c.sharedResidencies += sharedResidencies
}

// result closes the residencies still open at stream end and returns the
// lane's Result over n accesses: every miss filled one residency.
func (c *sharedCounts) result(policy string, n uint64) *Result {
	for _, x := range c.lines {
		if x != 0 {
			r, h := closeWord(x)
			c.sharedResidencies += r
			c.sharedHits += h
		}
	}
	return &Result{Policy: policy, Accesses: n, Hits: c.hits, Misses: n - c.hits,
		SharedHits: c.sharedHits, PrivateHits: c.hits - c.sharedHits,
		Residencies: n - c.hits, SharedResidencies: c.sharedResidencies}
}

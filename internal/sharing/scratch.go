package sharing

// Scratch pooling for the replay engine's flat per-lane arrays.
//
// A sweep calls ReplayMulti once per workload, and every call used to
// allocate the same few hundred megabytes of tracker state — residency
// columns, active tables, block censuses, outcome logs, gather buffers —
// only for the garbage collector to reclaim them moments later. The
// allocations themselves are cheap; what is not is everything riding on
// them: the runtime zeroing each array, the page faults of touching
// fresh spans, and re-collapsing those spans into huge pages
// (mem.Hugepages) on every single replay.
//
// The pool removes all three by recycling the arrays across replays.
// Most kinds need no clearing at all, because a finished replay leaves
// them satisfying the invariants a fresh replay needs:
//
//   - active ([]uint32): entries are cleared when their residency
//     closes, and closeAliveSoA clears the survivors', so the table
//     returns to all-zero — exactly the fresh state.
//   - outcome logs ([]uint8): phase one overwrites every byte before
//     phase two reads it.
//   - gather buffers ([]cache.AccessInfo): fully overwritten per shard.
//   - batch columns (cols []uint32, blks []uint64): no at-rest
//     invariant at all. The decode phase overwrites the consumed prefix
//     per shard, outcome words are overwritten per chunk, and the
//     probe's lineID reverse map is written for every way of a set
//     before any eviction in that set can read it — so unlike the
//     active tables of the words pool, these go back dirty.
//   - paired hit/core-write words (hcs [][2]uint64): all-zero at rest,
//     like active. The SoA tracker treats cw == 0 as "no open
//     residency" and every other column is gated by it, so
//     closeAliveSoA retiring survivors to a zero pair is what lets the
//     tracker's id column recycle dirty through the cols pool.
//
// Only blockState needs an explicit clear on reuse (the census values
// of the previous replay are meaningless for the next stream); that
// clear costs the same as the allocator's zeroing it replaces, and the
// faults and madvise calls are still saved.
//
// Arrays are grabbed best-fit by capacity and returned to the pool only
// on a replay's success path — an aborted replay abandons its scratch
// mid-invariant, and the pool never sees it. Nothing pooled escapes into
// a returned Result. The pool retains at most scratchKeep entries per
// kind, so its footprint tracks one sweep's working set (the suite's
// largest workload), not the sum of history.

import (
	"sync"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// scratchKeep bounds the retained entries per kind: enough for every
// lane of the widest sweep plus worker gather buffers.
const scratchKeep = 64

var scratch struct {
	mu    sync.Mutex
	words [][]uint32
	cols  [][]uint32
	blks  [][]uint64
	hcs   [][][2]uint64
	bytes [][]uint8
	accs  [][]cache.AccessInfo
}

// grab returns a slice of length n from pool (best capacity fit), or a
// fresh huge-page-backed allocation on a miss. zero forces a clear of
// the reused prefix for arrays whose old content carries no reusable
// invariant (blockState). pool must be one of the scratch fields.
func grab[T any](pool *[][]T, n int, zero bool) []T {
	scratch.mu.Lock()
	best := -1
	for i, s := range *pool {
		if cap(s) >= n && (best < 0 || cap(s) < cap((*pool)[best])) {
			best = i
		}
	}
	var s []T
	if best >= 0 {
		last := len(*pool) - 1
		s = (*pool)[best][:n]
		(*pool)[best] = (*pool)[last]
		(*pool)[last] = nil
		*pool = (*pool)[:last]
	}
	scratch.mu.Unlock()
	if s == nil {
		s = make([]T, n)
		mem.Hugepages(s)
		return s
	}
	if zero {
		clear(s)
	}
	return s
}

// put returns a slice to pool, restored to full capacity so a later
// grab sees everything the allocation can hold. Call only when the
// replay that used it finished cleanly (see the package comment).
func put[T any](pool *[][]T, s []T) {
	if cap(s) == 0 {
		return
	}
	scratch.mu.Lock()
	if len(*pool) < scratchKeep {
		*pool = append(*pool, s[:cap(s)])
	}
	scratch.mu.Unlock()
}

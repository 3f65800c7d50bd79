// Package reuse computes exact LRU stack (reuse) distances over the LLC
// reference stream: for each access, the number of *distinct* blocks
// referenced since the previous access to the same block. A reuse
// distance d hits in a fully-associative LRU cache of capacity > d, so
// the distance distribution is the geometry-independent fingerprint of a
// workload's locality.
//
// The experiment layer uses it to show where each workload's shared and
// private reuse sits relative to the 4 MB / 8 MB capacity boundary — the
// quantity the oracle's headroom depends on (marginal shared working sets
// just beyond capacity are exactly what sharing-aware protection
// rescues).
//
// The implementation is the classic O(n log n) algorithm: a Fenwick tree
// over access positions marks each block's most recent reference; the
// distance of an access is the count of marked positions after its
// block's previous reference (stackWalk).
package reuse

import (
	"fmt"
	"math"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// infinite is the distance reported for first-touch (cold) accesses.
const infinite = int64(math.MaxInt64)

// stackWalk yields the reuse distance of each access of a stream, in
// stream order. A Fenwick tree over stream positions marks each block's
// most recent access, so the marks count the distinct blocks seen so
// far, and the distance of an access is the marks after its block's
// previous access: that running count minus one prefix sum. Both tables
// come from the mem pool; release hands them back.
type stackWalk struct {
	tree     []int32 // Fenwick tree over positions, 1-based
	last     []int32 // BlockID → previous position + 1, 0 before its first access
	distinct int32   // blocks accessed so far: the marked positions
}

// newStackWalk sizes a walk over n accesses to blocks in [0, numBlocks).
func newStackWalk(n, numBlocks int) stackWalk {
	return stackWalk{tree: mem.Grab[int32](n + 1), last: mem.Grab[int32](numBlocks)}
}

// next returns the distance of access i, to block id: Infinite for a
// first touch. Accesses are presented in order, i = 0, 1, 2, ....
func (w *stackWalk) next(i int, id uint32) int64 {
	d := infinite
	if p := int(w.last[id]) - 1; p >= 0 {
		// Distinct blocks touched in (p, i): the marks after position
		// p, each block marked only at its most recent access.
		d = int64(w.distinct - w.sum(p))
		w.add(p, -1)
	} else {
		w.distinct++
	}
	w.add(i, 1)
	w.last[id] = int32(i + 1)
	return d
}

// add adds delta at position i (0-based).
func (w *stackWalk) add(i int, delta int32) {
	for i++; i < len(w.tree); i += i & -i {
		w.tree[i] += delta
	}
}

// sum returns the prefix sum over positions [0, i] (0-based, inclusive).
func (w *stackWalk) sum(i int) int32 {
	var s int32
	for i++; i > 0; i -= i & -i {
		s += w.tree[i]
	}
	return s
}

// release returns the walk's tables to the pool.
func (w *stackWalk) release() {
	mem.Release(w.tree)
	mem.Release(w.last)
	*w = stackWalk{}
}

// Bucket boundaries of the distance histogram, in blocks. The 4 MB and
// 8 MB LLC capacities (65536 and 131072 blocks) sit on bucket edges so
// the histogram reads directly as "fits at 4 MB / fits at 8 MB / fits
// nowhere".
var bucketEdges = []int64{1 << 10, 1 << 13, 1 << 16, 1 << 17, 1 << 19}

// NumBuckets is len(bucketEdges)+2: one bucket below each edge, one above
// the last, and one for cold (infinite) accesses.
const NumBuckets = 7

// BucketLabel names histogram bucket i.
func BucketLabel(i int) string {
	switch {
	case i < 0 || i >= NumBuckets:
		return "?"
	case i == NumBuckets-1:
		return "cold"
	case i == NumBuckets-2:
		return fmt.Sprintf(">=%dK", bucketEdges[len(bucketEdges)-1]>>10)
	case i == 0:
		return fmt.Sprintf("<%dK", bucketEdges[0]>>10)
	default:
		return fmt.Sprintf("<%dK", bucketEdges[i]>>10)
	}
}

// bucketOf maps a distance to its histogram bucket.
func bucketOf(d int64) int {
	if d == infinite {
		return NumBuckets - 1
	}
	for i, edge := range bucketEdges {
		if d < edge {
			return i
		}
	}
	return NumBuckets - 2
}

// Histogram is a per-class reuse-distance distribution.
type Histogram struct {
	Counts [NumBuckets]uint64
	Total  uint64
}

// add records one distance.
func (h *Histogram) add(d int64) {
	h.Counts[bucketOf(d)]++
	h.Total++
}

// Share returns bucket i's fraction of all recorded distances.
func (h *Histogram) Share(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// Profile is the reuse-distance characterization of one stream, split by
// the sharing classification of the access (via oracle-style hints).
type Profile struct {
	All     Histogram
	Shared  Histogram // accesses to blocks with a cross-core future
	Private Histogram
}

// Analyze computes the profile. hints[i], when non-nil, classifies access
// i as shared (oracle.SharedHints supplies it); with nil hints everything
// lands in All and Private.
func Analyze(stream []cache.AccessInfo, hints []bool) (*Profile, error) {
	if hints != nil && len(hints) != len(stream) {
		return nil, fmt.Errorf("reuse: %d hints for %d accesses", len(hints), len(stream))
	}
	// The per-block table is a flat slice over dense BlockIDs
	// (cache.EnsureBlockIDs), not a hash of the sparse block number, and
	// each distance goes straight into the histograms.
	stream, numBlocks := cache.EnsureBlockIDs(stream)
	w := newStackWalk(len(stream), numBlocks)
	p := &Profile{}
	for i := range stream {
		d := w.next(i, stream[i].BlockID)
		p.All.add(d)
		if hints != nil && hints[i] {
			p.Shared.add(d)
		} else {
			p.Private.add(d)
		}
	}
	w.release()
	return p, nil
}

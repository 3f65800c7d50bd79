// Package reuse histograms exact LRU stack (reuse) distances over the
// LLC reference stream: for each access, the number of *distinct* blocks
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
// The implementation never computes a distance, only its bucket, in
// one linear walk (bucketWalk): a bitmap over stream positions marks
// each block's most recent access, and for each bucket edge e the walk
// keeps the position of the e-th most recent mark. The distance of an
// access is the count of marks after its block's previous access, so it
// reaches e iff that access lies before e's boundary.
package reuse

import (
	"fmt"
	"math/bits"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// bucketWalk yields the histogram bucket of each access of a stream, in
// stream order: the bucket of its exact LRU stack distance under edges
// (ascending), without the distance. bound[k] is the position of the
// edges[k]-th most recent mark, -1 while fewer blocks have been seen;
// boundaries only move forward, so the walk is O(n) per edge. Both
// tables come from the mem pool; release hands them back.
type bucketWalk struct {
	marks    []uint64 // bit i: access i is its block's most recent so far
	last     []int32  // BlockID → previous position + 1, 0 before its first access
	edges    []int64
	bound    []int
	distinct int64 // blocks accessed so far: the set marks
}

// newBucketWalk sizes a walk over n accesses to blocks in [0, numBlocks).
func newBucketWalk(n, numBlocks int, edges []int64) bucketWalk {
	w := bucketWalk{marks: mem.Grab[uint64]((n + 63) / 64), last: mem.Grab[int32](numBlocks), edges: edges, bound: make([]int, len(edges))}
	for k := range w.bound {
		w.bound[k] = -1
	}
	return w
}

// next returns the bucket of access i, to block id: len(edges)+1 for a
// first touch. Accesses are presented in order, i = 0, 1, 2, ....
func (w *bucketWalk) next(i int, id uint32) int {
	w.marks[i>>6] |= 1 << (i & 63)
	p := int(w.last[id]) - 1
	w.last[id] = int32(i + 1)
	if p < 0 {
		// One more block: every boundary moves one mark on, and an edge
		// the count reaches gets its first, the oldest mark.
		w.distinct++
		for k, e := range w.edges {
			if w.distinct < e {
				break
			}
			w.bound[k] = w.nextMark(w.bound[k])
		}
		return len(w.edges) + 1
	}
	// The block's mark moves from p to i. Its distance reaches edges[k]
	// iff p lies before bound[k] (boundaries decrease in k): the bucket.
	// Those boundaries move one mark on, and so does one sitting on p.
	w.marks[p>>6] &^= 1 << (p & 63)
	b := 0
	for ; b < len(w.bound) && p < w.bound[b]; b++ {
		w.bound[b] = w.nextMark(w.bound[b])
	}
	if b < len(w.bound) && p == w.bound[b] {
		w.bound[b] = w.nextMark(p)
	}
	return b
}

// nextMark returns the first marked position after pos; the mark of
// the latest access lies after every boundary, so there is one.
func (w *bucketWalk) nextMark(pos int) int {
	pos++
	if word := w.marks[pos>>6] >> (pos & 63); word != 0 {
		return pos + bits.TrailingZeros64(word)
	}
	k := pos>>6 + 1
	for w.marks[k] == 0 {
		k++
	}
	return k<<6 + bits.TrailingZeros64(w.marks[k])
}

// release returns the walk's tables to the pool.
func (w *bucketWalk) release() {
	mem.Release(w.marks)
	mem.Release(w.last)
	*w = bucketWalk{}
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
	default:
		return fmt.Sprintf("<%dK", bucketEdges[i]>>10)
	}
}

// Histogram is a per-class reuse-distance distribution.
type Histogram struct {
	Counts [NumBuckets]uint64
	Total  uint64
}

// add records one access in bucket b.
func (h *Histogram) add(b int) {
	h.Counts[b]++
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
	// each bucket goes straight into the histograms.
	stream, numBlocks := cache.EnsureBlockIDs(stream)
	w := newBucketWalk(len(stream), numBlocks, bucketEdges)
	p := &Profile{}
	for i := range stream {
		b := w.next(i, stream[i].BlockID)
		p.All.add(b)
		if hints != nil && hints[i] {
			p.Shared.add(b)
		} else {
			p.Private.add(b)
		}
	}
	w.release()
	return p, nil
}

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
// block's previous reference.
package reuse

import (
	"fmt"
	"math"

	"sharellc/internal/cache"
)

// Infinite is the distance reported for first-touch (cold) accesses.
const Infinite = int64(math.MaxInt64)

// fenwick is a binary indexed tree over stream positions.
type fenwick struct {
	tree []int32
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int32, n+1)} }

// add adds delta at position i (0-based).
func (f *fenwick) add(i int, delta int32) {
	for i++; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// sum returns the prefix sum over positions [0, i] (0-based, inclusive).
func (f *fenwick) sum(i int) int32 {
	var s int32
	for i++; i > 0; i -= i & -i {
		s += f.tree[i]
	}
	return s
}

// distances computes the reuse distance of every access in stream.
// First-touch accesses get Infinite. The per-block previous-position
// table is a flat slice over dense BlockIDs (cache.EnsureBlockIDs), not a
// hash of the sparse block number.
func distances(stream []cache.AccessInfo) []int64 {
	out := make([]int64, len(stream))
	fw := newFenwick(len(stream))
	stream, numBlocks := cache.EnsureBlockIDs(stream)
	last := make([]int64, numBlocks) // BlockID → previous position + 1
	for i := range stream {
		id := stream[i].BlockID
		if p := last[id]; p != 0 {
			// Distinct blocks touched in (p-1, i) = marked positions in
			// that open interval; each block is marked only at its most
			// recent position.
			out[i] = int64(fw.sum(i-1) - fw.sum(int(p-1)))
			fw.add(int(p-1), -1)
		} else {
			out[i] = Infinite
		}
		fw.add(i, 1)
		last[id] = int64(i) + 1
	}
	return out
}

// Bucket boundaries of the distance histogram, in blocks. The 4 MB and
// 8 MB LLC capacities (65536 and 131072 blocks) sit on bucket edges so
// the histogram reads directly as "fits at 4 MB / fits at 8 MB / fits
// nowhere".
var BucketEdges = []int64{1 << 10, 1 << 13, 1 << 16, 1 << 17, 1 << 19}

// NumBuckets is len(BucketEdges)+2: one bucket below each edge, one above
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
		return fmt.Sprintf(">=%dK", BucketEdges[len(BucketEdges)-1]>>10)
	case i == 0:
		return fmt.Sprintf("<%dK", BucketEdges[0]>>10)
	default:
		return fmt.Sprintf("<%dK", BucketEdges[i]>>10)
	}
}

// bucketOf maps a distance to its histogram bucket.
func bucketOf(d int64) int {
	if d == Infinite {
		return NumBuckets - 1
	}
	for i, edge := range BucketEdges {
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

// Add records one distance.
func (h *Histogram) Add(d int64) {
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
	p := &Profile{}
	for i, d := range distances(stream) {
		p.All.Add(d)
		if hints != nil && hints[i] {
			p.Shared.Add(d)
		} else {
			p.Private.Add(d)
		}
	}
	return p, nil
}

package oracle

import (
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
)

// chainHints is the chain walk SharedHints replaced, kept as its
// reference: for each position, follow the block's NextUse chain at most
// horizon positions ahead and stop at the first access by another core.
// stream must be annotated.
func chainHints(stream []cache.AccessInfo, horizon int64) []bool {
	hints := make([]bool, len(stream))
	for i := range stream {
		c := stream[i].Core
		for j := stream[i].NextUse; j != cache.NoNextUse && int64(j)-int64(i) <= horizon; j = stream[j].NextUse {
			if stream[j].Core != c {
				hints[i] = true
				break
			}
		}
	}
	return hints
}

// ownedStream builds an annotated stream where most blocks belong to one
// core and are touched by another only rarely — cross-core successors lie
// hundreds of thousands of positions apart, so the F5 horizons cut
// through them — plus a few hot blocks every core touches, so short
// horizons see hints too.
func ownedStream(n int, seed uint64) []cache.AccessInfo {
	const owned, hot = 40000, 64
	r := rng.New(seed)
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		var b uint64
		var c uint8
		if r.Bool(0.1) {
			b, c = owned+r.Uint64n(hot), uint8(r.Intn(8))
		} else {
			b = r.Uint64n(owned)
			c = uint8(b % 8)
			if r.Bool(0.03) {
				c = uint8(r.Intn(8))
			}
		}
		stream[i] = cache.AccessInfo{Block: b, Core: c, Index: int32(i)}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

// TestSharedHintsMatchChainWalk holds the backward pass to the chain walk
// bit for bit at horizon 0, 1, the two F5 horizons (HorizonFactor at 4
// and 8 MB) and one past the stream's length, both one horizon per pass
// (SharedHints, which scans for the block count) and all of them in one
// pass given the count (A4's hintColumns).
func TestSharedHintsMatchChainWalk(t *testing.T) {
	stream := ownedStream(600000, 3)
	horizons := []int64{0, 1, Horizon(4<<20, HorizonFactor), Horizon(8<<20, HorizonFactor), int64(len(stream)) + 1}
	_, numBlocks := cache.EnsureBlockIDs(stream)
	cols := make([][]bool, len(horizons))
	for k := range cols {
		cols[k] = make([]bool, len(stream))
	}
	hintColumns(stream, numBlocks, horizons, cols)
	for k, horizon := range horizons {
		want := chainHints(stream, horizon)
		hinted := 0
		for _, got := range [][]bool{SharedHints(stream, horizon), cols[k]} {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("horizon %d: position %d hinted %v, chain walk %v", horizon, i, got[i], want[i])
				}
			}
		}
		for _, h := range want {
			if h {
				hinted++
			}
		}
		t.Logf("horizon %d: %d of %d positions hinted", horizon, hinted, len(stream))
		if (horizon == 0) != (hinted == 0) {
			t.Errorf("horizon %d hinted %d positions", horizon, hinted)
		}
	}
}

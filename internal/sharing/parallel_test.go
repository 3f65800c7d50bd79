package sharing

import (
	"reflect"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// synthStream builds a pseudo-random annotated stream with enough blocks
// and cores to populate every set of the test cache and produce both
// shared and private residencies.
func synthStream(n int, blocks uint64, cores uint8, seed uint64) []cache.AccessInfo {
	r := rng.New(seed)
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		b := uint64(r.Intn(int(blocks)))
		stream[i] = cache.AccessInfo{
			Core:  uint8(r.Intn(int(cores))),
			Block: b,
			PC:    0x400 + (b%7)*4,
			Write: r.Intn(5) == 0,
			Index: int64(i),
		}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

// prefixLens returns the stream lengths the tier differentials compare
// at: n/7, n/3, n/2 and n, plus the chunk-boundary lengths around
// batchSize that fit.
func prefixLens(n int) []int {
	lens := []int{n / 7, n / 3, n / 2, n}
	for _, m := range []int{batchSize - 1, batchSize, batchSize + 1} {
		if m < n {
			lens = append(lens, m)
		}
	}
	slices.Sort(lens)
	return slices.Compact(lens)
}

// eachPrefix calls f on every prefixLens prefix of stream, each a
// self-contained stream (re-annotated, so its BlockIDs and next-use
// distances are the prefix's own). A Result holds only counters, and two
// engines can agree on every sum at one stream length while crediting a
// close to the wrong residency; the residencies open at a cut close
// there, so such a misattribution surfaces in some prefix's degree
// histogram. Comparing whole Results at several cuts is what keeps the
// differential tests as sharp as comparing per-residency logs was.
func eachPrefix(stream []cache.AccessInfo, f func(prefix []cache.AccessInfo)) {
	for _, m := range prefixLens(len(stream)) {
		p := slices.Clone(stream[:m])
		cache.AnnotateNextUse(p)
		f(p)
	}
}

// perSetFactories are the policies that take the sharded path.
func perSetFactories() map[string]func() cache.Policy {
	return map[string]func() cache.Policy{
		"lru":   func() cache.Policy { return policy.NewLRUPolicy() },
		"fifo":  func() cache.Policy { return policy.NewFIFO() },
		"nru":   func() cache.Policy { return policy.NewNRU() },
		"plru":  func() cache.Policy { return policy.NewPLRU() },
		"lip":   func() cache.Policy { return policy.NewLIP() },
		"srrip": func() cache.Policy { return policy.NewSRRIP() },
		"opt":   func() cache.Policy { return policy.NewOPT() },
	}
}

// TestReplayParallelBitIdentical replays the same stream sequentially and
// at several forced shard counts under every per-set policy, demanding
// the full Result — counters, degree histograms and block census — be
// identical at every prefix.
func TestReplayParallelBitIdentical(t *testing.T) {
	full := synthStream(20000, 200, 8, 7)
	for name, f := range perSetFactories() {
		t.Run(name, func(t *testing.T) {
			eachPrefix(full, func(stream []cache.AccessInfo) {
				want, err := Replay(stream, testSize, testWays, f(), Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 4} {
					got, err := ReplayParallel(stream, testSize, testWays, f, Options{Shards: shards})
					if err != nil {
						t.Fatalf("len %d, shards=%d: %v", len(stream), shards, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("len %d, shards=%d: result differs from sequential\nseq: %+v\npar: %+v", len(stream), shards, want, got)
					}
				}
			})
		})
	}
}

// TestReplayParallelFallbacks checks that ineligible configurations fall
// back to the sequential path and still return correct results: policies
// with cross-set state, replays with hooks installed, and explicit
// single-shard requests.
func TestReplayParallelFallbacks(t *testing.T) {
	stream := synthStream(5000, 100, 4, 11)

	// DRRIP duels sets against each other: not per-set independent.
	drrip := func() cache.Policy { return policy.NewDRRIP(rng.New(3)) }
	want, err := Replay(stream, testSize, testWays, drrip(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayParallel(stream, testSize, testWays, drrip, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("non-per-set policy: parallel entry point differs from sequential")
	}

	// Hooks observe stream order; a shard request must not break them.
	var seen int
	hooked := Options{Shards: 4, Hooks: Hooks{OnAccess: func(cache.AccessInfo) { seen++ }}}
	if _, err := ReplayParallel(stream, testSize, testWays,
		func() cache.Policy { return policy.NewLRUPolicy() }, hooked); err != nil {
		t.Fatal(err)
	}
	if seen != len(stream) {
		t.Errorf("OnAccess fired %d times, want %d", seen, len(stream))
	}

	// Shards=1 is an explicit sequential request.
	seq, err := ReplayParallel(stream, testSize, testWays,
		func() cache.Policy { return policy.NewLRUPolicy() }, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Replay(stream, testSize, testWays, policy.NewLRUPolicy(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, seq) {
		t.Error("Shards=1 differs from sequential Replay")
	}
}

// TestReplayUnassignedBlockIDs checks the EnsureBlockIDs fallback: a
// stream filtered without annotation (all BlockIDs zero) must replay
// correctly without mutating the caller's slice.
func TestReplayUnassignedBlockIDs(t *testing.T) {
	annotated := synthStream(2000, 50, 4, 13)
	raw := make([]cache.AccessInfo, len(annotated))
	for i, a := range annotated {
		a.BlockID = 0
		a.NextUse = 0
		raw[i] = a
	}
	want, err := Replay(annotated, testSize, testWays, policy.NewLRUPolicy(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Replay(raw, testSize, testWays, policy.NewLRUPolicy(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Hits != want.Hits || got.Misses != want.Misses ||
		got.SharedHits != want.SharedHits || got.DistinctBlocks != want.DistinctBlocks {
		t.Errorf("unassigned-ID replay differs: %+v vs %+v", got, want)
	}
	for i := range raw {
		if raw[i].BlockID != 0 {
			t.Fatal("Replay mutated the caller's stream")
		}
	}
	pgot, err := ReplayParallel(raw, testSize, testWays,
		func() cache.Policy { return policy.NewLRUPolicy() }, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pgot.Hits != want.Hits || pgot.Misses != want.Misses {
		t.Errorf("unassigned-ID parallel replay differs: %+v vs %+v", pgot, want)
	}
}

// TestGeometryHelper pins cache.Geometry against NewSetAssoc.
func TestGeometryHelper(t *testing.T) {
	sets, err := cache.Geometry(testSize, testWays)
	if err != nil {
		t.Fatal(err)
	}
	if sets != testSize/trace.BlockSize/testWays {
		t.Errorf("sets = %d", sets)
	}
	if _, err := cache.Geometry(testSize+1, testWays); err == nil {
		t.Error("fractional geometry accepted")
	}
}

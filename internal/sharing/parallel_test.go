package sharing

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// setProcs sets GOMAXPROCS, and with it how many lanes the process's
// worker pool can replay at once, for the rest of the test and restores
// the previous value when it ends.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

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
			Index: int32(i),
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

// catalogued returns the factory of the named catalogue policy.
func catalogued(tb testing.TB, name string, seed uint64) policy.Factory {
	tb.Helper()
	f, err := policy.ByName(name, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// perSetFactories are the per-set-independent policies.
func perSetFactories(tb testing.TB) map[string]policy.Factory {
	out := map[string]policy.Factory{}
	for _, name := range []string{"lru", "fifo", "nru", "plru", "lip", "srrip", "opt"} {
		out[name] = catalogued(tb, name, 1)
	}
	return out
}

// TestReplayParallelBitIdentical replays the same stream through a
// one-config ReplayMulti at several GOMAXPROCS settings under every
// per-set policy, demanding the full Result — counters, degree histograms and
// block census — equal the reference walk at every prefix.
func TestReplayParallelBitIdentical(t *testing.T) {
	full := synthStream(20000, 200, 8, 7)
	for name, f := range perSetFactories(t) {
		t.Run(name, func(t *testing.T) {
			c := LLCConfig{Size: testSize, Ways: testWays, NewPolicy: f}
			eachPrefix(full, func(stream []cache.AccessInfo) {
				want, err := seqReplay(stream, c, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 2, 4} {
					setProcs(t, procs)
					got, err := ReplayMulti(stream, []LLCConfig{c}, Options{})
					if err != nil {
						t.Fatalf("len %d, GOMAXPROCS=%d: %v", len(stream), procs, err)
					}
					if !reflect.DeepEqual(want, got[0]) {
						t.Errorf("len %d, GOMAXPROCS=%d: result differs from the reference\nref: %+v\npar: %+v", len(stream), procs, want, got[0])
					}
				}
			})
		})
	}
}

// TestReplayParallelFallbacks checks the lanes whose policy pass must
// keep global stream order: a policy with cross-set state and a hooked
// lane (the PredictShared hook must see every miss once, in stream
// order). Both must match the reference walk.
func TestReplayParallelFallbacks(t *testing.T) {
	stream := synthStream(5000, 100, 4, 11)

	// DRRIP duels sets against each other: not per-set independent.
	drrip := LLCConfig{Size: testSize, Ways: testWays, NewPolicy: catalogued(t, "drrip", 3)}
	want, err := seqReplay(stream, drrip, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayMulti(stream, []LLCConfig{drrip}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got[0]) {
		t.Error("non-per-set policy: the replay differs from the reference")
	}

	// Hooks observe stream order.
	var seen []int32
	hooked := testLane(Hooks{PredictShared: func(a cache.AccessInfo) bool {
		seen = append(seen, a.Index)
		return false
	}})
	got, err = ReplayMulti(stream, []LLCConfig{hooked}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(seen)) != got[0].Misses {
		t.Fatalf("PredictShared fired %d times for %d misses", len(seen), got[0].Misses)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("PredictShared saw index %d after %d", seen[i], seen[i-1])
		}
	}
	want, err = seqReplay(stream, testLane(Hooks{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got[0]) {
		t.Error("hooked lane differs from the unhooked reference walk")
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
	want := replay(t, annotated, Hooks{})
	got := replay(t, raw, Hooks{})
	if got.Hits != want.Hits || got.Misses != want.Misses ||
		got.SharedHits != want.SharedHits || got.DistinctBlocks != want.DistinctBlocks {
		t.Errorf("unassigned-ID replay differs: %+v vs %+v", got, want)
	}
	for i := range raw {
		if raw[i].BlockID != 0 {
			t.Fatal("replay mutated the caller's stream")
		}
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

package sharing

import (
	"slices"
	"testing"
	"testing/quick"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// mkStream builds an annotated LLC stream from (core, block) pairs.
func mkStream(pairs [][2]uint64) []cache.AccessInfo {
	stream := make([]cache.AccessInfo, len(pairs))
	for i, p := range pairs {
		stream[i] = cache.AccessInfo{
			Core:  uint8(p[0]),
			Block: p[1],
			PC:    0x400 + p[1]*4,
			Index: int32(i),
		}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

const (
	testSize = 16 * trace.BlockSize // 4 sets x 4 ways
	testWays = 4
)

// testLane is the LRU lane at the test geometry, with hooks h.
func testLane(h Hooks) LLCConfig {
	return LLCConfig{Size: testSize, Ways: testWays, Hooks: h,
		NewPolicy: func() cache.Policy { return &cache.LRU{} }}
}

// replay runs the test lane with hooks h through ReplayMulti.
func replay(t *testing.T, stream []cache.AccessInfo, h Hooks) *Result {
	t.Helper()
	res, err := ReplayMulti(stream, []LLCConfig{testLane(h)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// replayLogged is replay plus the residency log: every closed residency,
// collected through Hooks.OnResidencyEnd, in closure order (evictions by
// evicting index, then stream-end survivors by fill index).
func replayLogged(t *testing.T, stream []cache.AccessInfo) (*Result, []Residency) {
	t.Helper()
	var log []Residency
	res := replay(t, stream, Hooks{
		OnResidencyEnd: func(r Residency) { log = append(log, r) },
	})
	return res, log
}

func TestPrivateResidency(t *testing.T) {
	// One core touches one block three times: 1 residency, private,
	// 2 hits.
	res, log := replayLogged(t, mkStream([][2]uint64{{0, 1}, {0, 1}, {0, 1}}))
	if res.Accesses != 3 || res.Hits != 2 || res.Misses != 1 {
		t.Fatalf("counts = (%d,%d,%d), want (3,2,1)", res.Accesses, res.Hits, res.Misses)
	}
	if res.SharedHits != 0 || res.PrivateHits != 2 {
		t.Errorf("hit split = (%d,%d), want (0,2)", res.SharedHits, res.PrivateHits)
	}
	if res.Residencies != 1 || res.SharedResidencies != 0 {
		t.Errorf("residencies = (%d,%d), want (1,0)", res.Residencies, res.SharedResidencies)
	}
	if len(log) != 1 || log[0].FillIndex != 0 || log[0].Shared() {
		t.Errorf("residency log = %+v, want one private residency filled at 0", log)
	}
}

func TestSharedResidency(t *testing.T) {
	// Core 0 fills, core 1 hits: the residency is shared, and BOTH hits
	// (including core 0's own later hit) count as shared hit volume.
	res, log := replayLogged(t, mkStream([][2]uint64{{0, 1}, {1, 1}, {0, 1}}))
	if res.SharedHits != 2 || res.PrivateHits != 0 {
		t.Errorf("hit split = (%d,%d), want (2,0)", res.SharedHits, res.PrivateHits)
	}
	if res.SharedResidencies != 1 {
		t.Errorf("shared residencies = %d, want 1", res.SharedResidencies)
	}
	// The residency belongs to the fill (access 0), not to the hits.
	if len(log) != 1 || log[0].FillIndex != 0 || !log[0].Shared() || log[0].Hits != 2 {
		t.Errorf("residency log = %+v, want one shared residency filled at 0 with 2 hits", log)
	}
}

func TestSharingResetsAcrossResidencies(t *testing.T) {
	// Block 0 is shared in its first residency, then evicted by
	// conflicting fills, then re-filled and touched by one core only:
	// the second residency is private. Blocks 0,4,8,12,16 map to set 0.
	pairs := [][2]uint64{
		{0, 0}, {1, 0}, // residency 1 of block 0: shared
		{0, 4}, {0, 8}, {0, 12}, {0, 16}, // four fills evict block 0 (LRU)
		{0, 0}, {0, 0}, // residency 2 of block 0: private
	}
	res, log := replayLogged(t, mkStream(pairs))
	if res.Residencies < 2 {
		t.Fatalf("residencies = %d, want >= 2", res.Residencies)
	}
	var first, second *Residency
	for i := range log {
		r := &log[i]
		if r.Block == 0 {
			if first == nil {
				first = r
			} else {
				second = r
			}
		}
	}
	// The second residency of block 0 is still alive at stream end and
	// closed then; both must be present in the log.
	if first == nil || second == nil {
		t.Fatal("expected two residencies of block 0 in the log")
	}
	if !first.Shared() || first.degree() != 2 {
		t.Errorf("first residency: shared=%v degree=%d, want true/2", first.Shared(), first.degree())
	}
	if second.Shared() {
		t.Error("second residency inherited sharing from the first")
	}
	if first.EvictIndex < 0 {
		t.Error("first residency not marked evicted")
	}
	if second.EvictIndex >= 0 {
		t.Error("alive-at-end residency marked evicted")
	}
}

func TestDegreeHistogram(t *testing.T) {
	// Block 1 touched by cores 0,1,2; block 2 by core 3 only.
	pairs := [][2]uint64{{0, 1}, {1, 1}, {2, 1}, {3, 2}}
	res := replay(t, mkStream(pairs), Hooks{})
	if res.DegreeResidencies[3] != 1 {
		t.Errorf("degree-3 residencies = %d, want 1", res.DegreeResidencies[3])
	}
	if res.DegreeResidencies[1] != 1 {
		t.Errorf("degree-1 residencies = %d, want 1", res.DegreeResidencies[1])
	}
	if res.DegreeHits[3] != 2 {
		t.Errorf("degree-3 hits = %d, want 2", res.DegreeHits[3])
	}
}

// TestTrackedDegreeHistogramLength: a tracked Result's degree histograms
// end at the replay's core bound: soaMaxCores+1 entries, the last of
// which a block touched by every core of a soaMaxCores-core stream fills.
func TestTrackedDegreeHistogramLength(t *testing.T) {
	pairs := make([][2]uint64, soaMaxCores)
	for c := range pairs {
		pairs[c] = [2]uint64{uint64(c), 1}
	}
	res := replay(t, mkStream(pairs), Hooks{})
	if len(res.DegreeResidencies) != soaMaxCores+1 || len(res.DegreeHits) != soaMaxCores+1 {
		t.Fatalf("degree histograms of %d and %d entries, want %d", len(res.DegreeResidencies), len(res.DegreeHits), soaMaxCores+1)
	}
	if res.DegreeResidencies[soaMaxCores] != 1 || res.DegreeHits[soaMaxCores] != soaMaxCores-1 {
		t.Errorf("degree-%d residencies %d with %d hits, want 1 with %d", soaMaxCores, res.DegreeResidencies[soaMaxCores], res.DegreeHits[soaMaxCores], soaMaxCores-1)
	}
}

func TestDistinctBlockCensus(t *testing.T) {
	pairs := [][2]uint64{
		{0, 1}, {1, 1}, // block 1 shared
		{0, 2}, {0, 2}, // block 2 private
		{0, 3}, // block 3 private, no reuse
	}
	res := replay(t, mkStream(pairs), Hooks{})
	if res.DistinctBlocks != 3 {
		t.Errorf("DistinctBlocks = %d, want 3", res.DistinctBlocks)
	}
	if res.DistinctSharedBlocks != 1 {
		t.Errorf("DistinctSharedBlocks = %d, want 1", res.DistinctSharedBlocks)
	}
}

func TestReadOnlyVsReadWriteSharing(t *testing.T) {
	// Block 1: shared, read-only. Block 2: shared, written by core 1.
	stream := []cache.AccessInfo{
		{Core: 0, Block: 1, Index: 0},
		{Core: 1, Block: 1, Index: 1},
		{Core: 0, Block: 2, Index: 2},
		{Core: 1, Block: 2, Write: true, Index: 3},
		{Core: 2, Block: 2, Index: 4},
	}
	res, log := replayLogged(t, stream)
	if res.ROSharedResidencies != 1 || res.RWSharedResidencies != 1 {
		t.Errorf("RO/RW shared residencies = (%d,%d), want (1,1)",
			res.ROSharedResidencies, res.RWSharedResidencies)
	}
	if res.ROSharedHits != 1 || res.RWSharedHits != 2 {
		t.Errorf("RO/RW shared hits = (%d,%d), want (1,2)", res.ROSharedHits, res.RWSharedHits)
	}
	for _, r := range log {
		if r.Block == 1 && r.written {
			t.Error("read-only residency marked written")
		}
		if r.Block == 2 && !r.written {
			t.Error("written residency not marked")
		}
	}
}

func TestWrittenByFill(t *testing.T) {
	// The fill itself being a store marks the residency written.
	stream := []cache.AccessInfo{
		{Core: 0, Block: 1, Write: true, Index: 0},
		{Core: 1, Block: 1, Index: 1},
	}
	if res := replay(t, stream, Hooks{}); res.RWSharedResidencies != 1 {
		t.Errorf("write-filled shared residency not counted as RW: %+v", res)
	}
}

func TestROPlusRWEqualsShared(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 500 + rnd.Intn(1000)
		stream := make([]cache.AccessInfo, n)
		for i := range stream {
			stream[i] = cache.AccessInfo{
				Core:  uint8(rnd.Intn(8)),
				Block: rnd.Uint64n(96),
				Write: rnd.Bool(0.3),
				Index: int32(i),
			}
		}
		res := replay(t, stream, Hooks{})
		return res.ROSharedResidencies+res.RWSharedResidencies == res.SharedResidencies &&
			res.ROSharedHits+res.RWSharedHits == res.SharedHits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestOnResidencyEndFiresForAll(t *testing.T) {
	pairs := [][2]uint64{{0, 0}, {0, 4}, {0, 8}, {0, 12}, {0, 16}} // 5 blocks, 4 ways: 1 eviction
	var ended []Residency
	res := replay(t, mkStream(pairs), Hooks{
		OnResidencyEnd: func(r Residency) { ended = append(ended, r) },
	})
	if uint64(len(ended)) != res.Residencies {
		t.Errorf("hook fired %d times for %d residencies", len(ended), res.Residencies)
	}
	if res.Residencies != 5 {
		t.Errorf("residencies = %d, want 5", res.Residencies)
	}
	evicted := 0
	for _, r := range ended {
		if r.EvictIndex >= 0 {
			evicted++
		}
	}
	if evicted != 1 {
		t.Errorf("%d residencies evicted, want 1", evicted)
	}
}

func TestPredictSharedFiresForEveryMiss(t *testing.T) {
	pairs := [][2]uint64{{0, 1}, {1, 1}, {0, 2}, {0, 1}, {1, 3}}
	var seen []int32
	res := replay(t, mkStream(pairs), Hooks{
		PredictShared: func(a cache.AccessInfo) bool { seen = append(seen, a.Index); return false },
	})
	if want := []int32{0, 2, 4}; !slices.Equal(seen, want) || res.Misses != uint64(len(want)) {
		t.Errorf("hook saw misses at %v (%d misses), want %v", seen, res.Misses, want)
	}
}

func TestStreamIndexValidation(t *testing.T) {
	stream := []cache.AccessInfo{{Block: 1, Index: 7}}
	if _, err := seqReplay(stream, testLane(Hooks{}), Options{}); err == nil {
		t.Error("the reference walk accepted a misindexed stream")
	}
	if _, err := ReplayMulti(stream, []LLCConfig{testLane(Hooks{})}, Options{}); err == nil {
		t.Error("ReplayMulti accepted a misindexed stream")
	}
}

func TestBadGeometryRejected(t *testing.T) {
	bad := testLane(Hooks{})
	bad.Size = 63
	if _, err := seqReplay(nil, bad, Options{}); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestEmptyStream(t *testing.T) {
	res := replay(t, nil, Hooks{})
	if res.Accesses != 0 || res.Residencies != 0 || res.MissRate() != 0 || res.SharedHitFraction() != 0 {
		t.Errorf("empty stream produced non-empty result: %+v", res)
	}
}

// Property: conservation laws hold on random streams under every metric:
// hits+misses=accesses, shared+private hits=hits, residencies=fills,
// degree histograms sum to totals, and the closed residencies are exactly
// one per fill, with the shared ones matching the shared counters.
func TestConservationProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 500 + rnd.Intn(1500)
		pairs := make([][2]uint64, n)
		for i := range pairs {
			pairs[i] = [2]uint64{rnd.Uint64n(8), rnd.Uint64n(96)}
		}
		res, log := replayLogged(t, mkStream(pairs))
		if res.Hits+res.Misses != res.Accesses {
			return false
		}
		if res.SharedHits+res.PrivateHits != res.Hits {
			return false
		}
		if res.Residencies != res.Misses {
			return false
		}
		var degSum, degHits uint64
		for d, c := range res.DegreeResidencies {
			degSum += c
			degHits += res.DegreeHits[d]
		}
		if degSum != res.Residencies || degHits != res.Hits {
			return false
		}
		var logShared, logSharedHits uint64
		fills := make(map[int64]bool, len(log))
		for _, r := range log {
			fills[r.FillIndex] = true
			if r.Shared() {
				logShared++
				logSharedHits += r.Hits
			}
		}
		if uint64(len(fills)) != res.Residencies || logShared != res.SharedResidencies || logSharedHits != res.SharedHits {
			return false
		}
		if res.DistinctSharedBlocks > res.DistinctBlocks {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: miss counts from a replay equal miss counts from driving the
// cache directly (the tracker must not perturb replacement).
func TestReplayMatchesRawCache(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 1000
		stream := make([]cache.AccessInfo, n)
		for i := range stream {
			stream[i] = cache.AccessInfo{
				Core:  uint8(rnd.Intn(4)),
				Block: rnd.Uint64n(64),
				Index: int32(i),
			}
		}
		res := replay(t, stream, Hooks{})
		raw, err := cache.NewSetAssoc(testSize, testWays, &cache.LRU{})
		if err != nil {
			return false
		}
		var rawMisses uint64
		for _, a := range stream {
			if !raw.Access(a).Hit {
				rawMisses++
			}
		}
		return rawMisses == res.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestResidencyLogDeterministic(t *testing.T) {
	rnd := rng.New(3)
	pairs := make([][2]uint64, 2000)
	for i := range pairs {
		pairs[i] = [2]uint64{rnd.Uint64n(4), rnd.Uint64n(128)}
	}
	_, a := replayLogged(t, mkStream(pairs))
	_, b := replayLogged(t, mkStream(pairs))
	if len(a) != len(b) {
		t.Fatal("log lengths differ between identical replays")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("residency %d differs between identical replays", i)
		}
	}
	// Closure order: evictions by evicting index, then the stream-end
	// survivors by fill index.
	for i := 1; i < len(a); i++ {
		p, r := a[i-1], a[i]
		switch {
		case p.EvictIndex >= 0 && r.EvictIndex >= 0:
			if p.EvictIndex >= r.EvictIndex {
				t.Fatalf("evictions %d, %d out of order", i-1, i)
			}
		case p.EvictIndex < 0 && r.EvictIndex < 0:
			if p.FillIndex >= r.FillIndex {
				t.Fatalf("survivors %d, %d out of fill order", i-1, i)
			}
		case p.EvictIndex < 0:
			t.Fatalf("survivor %d closed before eviction %d", i-1, i)
		}
	}
}

package sharing

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
)

// countsOf is what a counts-only replay must return for a lane whose
// tracked Result is r: its policy and three counts, zero elsewhere.
func countsOf(r *Result) *Result {
	return &Result{Policy: r.Policy, Accesses: r.Accesses, Hits: r.Hits, Misses: r.Misses}
}

// sharedHitsOf is what a shared-hit replay must return for a lane whose
// tracked Result is r: the counts, the hit split and the residency
// counts, zero elsewhere.
func sharedHitsOf(r *Result) *Result {
	return &Result{Policy: r.Policy, Accesses: r.Accesses, Hits: r.Hits, Misses: r.Misses,
		SharedHits: r.SharedHits, PrivateHits: r.PrivateHits,
		Residencies: r.Residencies, SharedResidencies: r.SharedResidencies}
}

// countsAgree replays configs over every prefix of full, tracked and
// counts only under opt, and demands each counts-only Result equal its
// tracked counterpart's counts with every residency field zero.
func countsAgree(t *testing.T, full []cache.AccessInfo, configs []LLCConfig, opt Options) {
	t.Helper()
	eachPrefix(full, func(stream []cache.AccessInfo) {
		tracked, err := ReplayMulti(stream, configs, opt)
		if err != nil {
			t.Fatal(err)
		}
		counted := opt
		counted.Tier = CountsOnly
		got, err := ReplayMulti(stream, configs, counted)
		if err != nil {
			t.Fatal(err)
		}
		for i := range configs {
			if want := countsOf(tracked[i]); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("len %d, config %d (%s @ %d ways): counts-only result differs from the tracked replay's counts\ncounts only: %+v\ntracked:     %+v",
					len(stream), i, want.Policy, configs[i].Ways, got[i], want)
			}
		}
	})
}

// sharedHitsAgree replays configs over every prefix of full at one and
// four workers, tracked and shared hits only, and demands each
// shared-hit Result equal the shared-hit fields of both the tracked
// replay and the reference walk, with every other field zero.
func sharedHitsAgree(t *testing.T, full []cache.AccessInfo, configs []LLCConfig) {
	t.Helper()
	eachPrefix(full, func(stream []cache.AccessInfo) {
		want := make([]*Result, len(configs))
		for i, c := range configs {
			ref, err := seqReplay(stream, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = sharedHitsOf(ref)
		}
		for _, shards := range []int{1, 4} {
			tracked, err := ReplayMulti(stream, configs, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReplayMulti(stream, configs, Options{Shards: shards, Tier: SharedHitsOnly})
			if err != nil {
				t.Fatal(err)
			}
			for i := range configs {
				if tr := sharedHitsOf(tracked[i]); !reflect.DeepEqual(tr, want[i]) {
					t.Fatalf("len %d, %d workers, config %d (%s @ %d ways): the tracked replay differs from the reference walk\ntracked:   %+v\nreference: %+v",
						len(stream), shards, i, want[i].Policy, configs[i].Ways, tr, want[i])
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("len %d, %d workers, config %d (%s @ %d ways): shared-hit result differs from the tracked replay and the reference walk\nshared hits: %+v\nreference:   %+v",
						len(stream), shards, i, want[i].Policy, configs[i].Ways, got[i], want[i])
				}
			}
		}
	})
}

// untrackedRefusals checks that a replay at tier refuses what the
// tracked replay refuses — the Index invariant with the same error, and
// the line and core limits — and accepts a 128-way cross-set lane,
// whose Result equals the reference walk's in every field the tier
// fills.
func untrackedRefusals(t *testing.T, tier Tier) {
	t.Helper()
	bad := synthStream(2000, 50, 4, 3)
	bad[1500].Index = 7
	lru := []LLCConfig{{Size: testSize, Ways: testWays, NewPolicy: catalogued(t, "lru", 1)}}
	_, want := ReplayMulti(bad, lru, Options{})
	_, got := ReplayMulti(bad, lru, Options{Tier: tier})
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("tier %d, broken Index invariant: error %v, tracked %v", tier, got, want)
	}

	refused := func(stream []cache.AccessInfo, c LLCConfig, limit string) {
		t.Helper()
		_, err := ReplayMulti(stream, []LLCConfig{c}, Options{Shards: 2, Tier: tier})
		if err == nil || !strings.Contains(err.Error(), limit) {
			t.Errorf("tier %d replay: err = %v, want the limit %s", tier, err, limit)
		}
	}
	short := synthStream(2000, 50, 4, 3)
	wide := LLCConfig{Size: 64 * cache.KB, Ways: 128, NewPolicy: catalogued(t, "drrip", 1)}
	res, err := ReplayMulti(short, []LLCConfig{wide}, Options{Shards: 2, Tier: tier})
	if err != nil {
		t.Fatalf("tier %d, 128-way lane: %v", tier, err)
	}
	ref, err := seqReplay(short, wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	project := countsOf
	if tier == SharedHitsOnly {
		project = sharedHitsOf
	}
	if !reflect.DeepEqual(res[0], project(ref)) {
		t.Errorf("tier %d, 128-way lane: %+v, reference walk %+v", tier, res[0], project(ref))
	}
	refused(short, LLCConfig{Size: 2 << 30 * 64, Ways: 16, NewPolicy: catalogued(t, "lru", 1)}, fmt.Sprint(maxLines))
	refused(synthStream(2000, 50, soaMaxCores+1, 3), lru[0], fmt.Sprint(soaMaxCores))
}

// TestReplayMultiCountsOnly holds the CountsOnly tier to the tracked
// replay at every prefix: the catalogue's 14 policies plus a hooked lane
// at two geometries and on one worker, a 128-way lane, and an empty
// stream. Every refusal of the tracked replay stands.
func TestReplayMultiCountsOnly(t *testing.T) {
	countsAgree(t, synthStream(40000, 3000, 8, 7), catalogueLanes(t, 64*cache.KB, 8), Options{Shards: 4})
	countsAgree(t, synthStream(8000, 200, 8, 7), catalogueLanes(t, testSize, testWays), Options{Shards: 1})
	countsAgree(t, synthStream(4000, 3000, 8, 5), []LLCConfig{{Size: 64 * cache.KB, Ways: 128, NewPolicy: catalogued(t, "lru", 1)}}, Options{Shards: 2})
	countsAgree(t, nil, catalogueLanes(t, testSize, testWays), Options{})
	untrackedRefusals(t, CountsOnly)
}

// protectedLane is a hook-free protected lane: a core.Protector over
// LRU whose fill hint is a fixed function of the access, carried in the
// policy as the oracle's lanes carry theirs, so its policy pass runs the
// protected-LRU kernel.
type protectedLane struct{ *core.Protector }

func (p protectedLane) Fill(set, way int, a *cache.AccessInfo) {
	p.FillHinted(set, way, a, p.LaneHint(a))
}
func (p protectedLane) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	return p.LRUKernel(c, p)
}
func (protectedLane) LaneHint(a *cache.AccessInfo) bool  { return a.Block%3 == 0 }
func (protectedLane) LaneHit(uint32, *cache.AccessInfo)  {}
func (protectedLane) LaneEvict(uint32)                   {}
func (protectedLane) LaneFill(uint32, *cache.AccessInfo) {}

// sharedHitLanes is the shared-hit tier's lane set at one geometry: the
// catalogue and a hooked LRU lane (catalogueLanes), a protected lane,
// and a 128-way LRU lane.
func sharedHitLanes(t *testing.T, size, ways int) []LLCConfig {
	return append(catalogueLanes(t, size, ways),
		LLCConfig{Size: size, Ways: ways, NewPolicy: func() cache.Policy {
			return protectedLane{core.NewProtectorOpts(policy.NewLRUPolicy(), core.Options{Strength: core.Full})}
		}},
		LLCConfig{Size: 64 * cache.KB, Ways: 128, NewPolicy: catalogued(t, "lru", 1)})
}

// streakStream mixes three kinds of block: private blocks only their own
// core touches, hand-off blocks whose owning core changes every 3000
// positions (so the last owner's streak runs to the block's last
// access), and blocks every one of eight cores touches at random.
func streakStream(n int, seed uint64) []cache.AccessInfo {
	r := rng.New(seed)
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		b := uint64(r.Intn(1200))
		var c uint8
		switch b / 400 {
		case 0:
			c = uint8(b % 8)
		case 1:
			c = uint8((b + uint64(i/3000)) % 8)
		default:
			c = uint8(r.Intn(8))
		}
		stream[i] = cache.AccessInfo{Block: b, Core: c, PC: 0x400 + b%5*4, Write: r.Intn(5) == 0, Index: int32(i)}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

// TestReplayMultiSharedHits holds the SharedHitsOnly tier to the tracked
// replay and the reference walk at every prefix and at one and four
// workers: every catalogue policy plus a hooked, a protected and a
// 128-way lane, over a randomly shared stream and over streakStream, at
// geometries that evict and one of 4 sets. Every refusal of the tracked
// replay stands.
func TestReplayMultiSharedHits(t *testing.T) {
	sharedHitsAgree(t, synthStream(40000, 3000, 8, 7), sharedHitLanes(t, 64*cache.KB, 8))
	sharedHitsAgree(t, streakStream(30000, 11), sharedHitLanes(t, 32*cache.KB, 8))
	sharedHitsAgree(t, synthStream(8000, 200, 8, 7), sharedHitLanes(t, testSize, testWays))
	sharedHitsAgree(t, nil, sharedHitLanes(t, testSize, testWays))
	untrackedRefusals(t, SharedHitsOnly)
}

// naiveStreaks is the streak column's definition, walked forward from
// every position: the accesses to p's block from p on, p included,
// before another core's first access to it; MaxUint32 if none comes.
func naiveStreaks(stream []cache.AccessInfo) []uint32 {
	out := make([]uint32, len(stream))
	for p := range stream {
		out[p] = math.MaxUint32
		n := uint32(1)
		for q := p + 1; q < len(stream); q++ {
			if stream[q].Block != stream[p].Block {
				continue
			}
			if stream[q].Core != stream[p].Core {
				out[p] = n
				break
			}
			n++
		}
	}
	return out
}

// TestStreakColumn holds buildStreaks to naiveStreaks: on a hand-built
// stream with one block only core 0 touches, one handed between two
// cores with the last streak running to the block's last access, and one
// that three cores touch in turn; and on streakStream.
func TestStreakColumn(t *testing.T) {
	const max = math.MaxUint32
	hand := []struct {
		block  uint64
		core   uint8
		streak uint32
	}{
		{1, 0, max}, {2, 0, 2}, {3, 0, 1},
		{2, 0, 1}, {1, 0, max}, {3, 1, 1},
		{2, 1, 2}, {3, 2, 2}, {2, 1, 1},
		{3, 2, 1}, {2, 0, max}, {1, 0, max},
		{3, 0, 1}, {2, 0, max}, {3, 1, max},
	}
	stream := make([]cache.AccessInfo, len(hand))
	for i, h := range hand {
		stream[i] = cache.AccessInfo{Block: h.block, Core: h.core, Index: int32(i)}
	}
	blocks := cache.AnnotateNextUse(stream)
	got := make([]uint32, len(stream))
	buildStreaks(stream, blocks, got)
	for i, h := range hand {
		if got[i] != h.streak {
			t.Errorf("hand-built stream, position %d (block %d, core %d): streak %d, want %d", i, h.block, h.core, got[i], h.streak)
		}
	}
	if want := naiveStreaks(stream); !reflect.DeepEqual(got, want) {
		t.Errorf("hand-built stream: streaks %v, naive reference %v", got, want)
	}

	for _, stream := range [][]cache.AccessInfo{streakStream(12000, 5), synthStream(6000, 300, 8, 9)} {
		_, blocks := cache.EnsureBlockIDs(stream)
		got := make([]uint32, len(stream))
		buildStreaks(stream, blocks, got)
		want := naiveStreaks(stream)
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("position %d of %d (block %d, core %d): streak %d, naive reference %d",
					p, len(stream), stream[p].Block, stream[p].Core, got[p], want[p])
			}
		}
	}
}

// untrackedAllocSteady checks a replay at tier: it allocates a count of
// objects independent of stream length and grabs no tracker, meta or
// census array — the mem pool's [2]uint64 and uint8 lists, drained
// first, receive no array but DRRIP's RRPV column, where a grab on the
// replay's success path would have released its fresh array to them.
func untrackedAllocSteady(t *testing.T, tier Tier) {
	t.Helper()
	long := synthStream(60000, 3000, 8, 7)
	configs := []LLCConfig{
		{Size: 64 * cache.KB, Ways: 8, NewPolicy: catalogued(t, "lru", 1)},
		{Size: 64 * cache.KB, Ways: 8, NewPolicy: catalogued(t, "drrip", 3)},
	}
	opt := Options{Shards: 2, Tier: tier}
	run := func(stream []cache.AccessInfo) func() {
		return func() {
			if _, err := ReplayMulti(stream, configs, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(long)() // warm the mem pool

	hcs, bytes := drainPool[[2]uint64](), drainPool[uint8]()
	defer restorePool(hcs)
	defer restorePool(bytes)
	short := testing.AllocsPerRun(3, run(long[:15000]))
	full := testing.AllocsPerRun(3, run(long))
	rrpv := 64 * cache.KB / 64 // DRRIP's sets*ways column
	grabbed := len(drainPool[[2]uint64]())
	for _, s := range drainPool[uint8]() {
		if cap(s) != rrpv {
			grabbed++
		}
	}
	if grabbed != 0 {
		t.Errorf("a tier %d replay grabbed %d tracker, meta or census arrays", tier, grabbed)
	}
	// Per-replay bookkeeping (two lanes, two workers, two results)
	// measures a few dozen objects either way.
	if full > short+10 || full > 100 {
		t.Errorf("tier %d replay allocated %.0f objects over 15k accesses and %.0f over 60k; want a count independent of length", tier, short, full)
	}
}

// TestReplayMultiCountsOnlyAllocSteady is untrackedAllocSteady for the
// CountsOnly tier. Wired into CI via `go test -run Alloc`.
func TestReplayMultiCountsOnlyAllocSteady(t *testing.T) { untrackedAllocSteady(t, CountsOnly) }

// TestReplayMultiSharedHitsAllocSteady is untrackedAllocSteady for the
// SharedHitsOnly tier, whose streak column and per-line words come from
// the pooled batch-column kinds. Wired into CI via `go test -run Alloc`.
func TestReplayMultiSharedHitsAllocSteady(t *testing.T) { untrackedAllocSteady(t, SharedHitsOnly) }

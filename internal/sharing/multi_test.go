package sharing

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/trace"
)

// multiGeometries picks the differential-test LLC geometries: the
// paper's 4 MB and 8 MB points in full runs, scaled-down equivalents in
// -short mode (same sets:ways shape, small enough for the race detector
// in CI).
func multiGeometries(t *testing.T) (sizes [2]int, ways int, stream []cache.AccessInfo) {
	if testing.Short() {
		return [2]int{64 * cache.KB, 128 * cache.KB}, 8, synthStream(40000, 3000, 8, 7)
	}
	// 150k distinct blocks overflow the 4 MB (64Ki-block) and 8 MB
	// (128Ki-block) capacities, so both geometries see real evictions.
	return [2]int{4 * cache.MB, 8 * cache.MB}, 16, synthStream(400000, 150000, 8, 7)
}

// TestReplayMultiBitIdentical fuses every registered policy at both LLC
// sizes into ONE ReplayMulti call — mixed geometries, sharded and
// two-phase lanes together — and demands each lane's full Result equal
// the reference walk of the same configuration alone, at every prefix.
func TestReplayMultiBitIdentical(t *testing.T) {
	sizes, ways, full := multiGeometries(t)
	names := policy.Names(1)

	eachPrefix(full, func(stream []cache.AccessInfo) {
		var configs []LLCConfig
		var want []*Result
		for _, size := range sizes {
			for _, n := range names {
				f, err := policy.ByName(n, 1)
				if err != nil {
					t.Fatal(err)
				}
				configs = append(configs, LLCConfig{Size: size, Ways: ways, NewPolicy: f})
				ref, err := seqReplay(stream, configs[len(configs)-1], Options{})
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, ref)
			}
		}
		got, err := ReplayMulti(stream, configs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d results, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("len %d, %s @ %d B: fused result differs from the reference\nref: %+v\nmulti: %+v",
					len(stream), configs[i].NewPolicy().Name(), configs[i].Size, want[i], got[i])
			}
		}
	})
}

// catalogueLanes is one lane per registered policy at (size, ways), plus
// a hooked LRU lane whose PredictShared hook answers at random.
func catalogueLanes(t *testing.T, size, ways int) []LLCConfig {
	t.Helper()
	var configs []LLCConfig
	for _, n := range policy.Names(1) {
		configs = append(configs, LLCConfig{Size: size, Ways: ways, NewPolicy: catalogued(t, n, 1)})
	}
	return append(configs, LLCConfig{Size: size, Ways: ways, NewPolicy: catalogued(t, "lru", 1),
		Hooks: Hooks{PredictShared: func(a cache.AccessInfo) bool { return a.Block%3 == 0 }}})
}

// assertOneShard replays stream through configs under opt and fails
// unless the replay asked for a one-shard partition.
func assertOneShard(t *testing.T, stream []cache.AccessInfo, configs []LLCConfig, opt Options) {
	t.Helper()
	asked := 0
	opt.Partitioner = func(n int) (*PartitionIndex, error) {
		asked = n
		return BuildPartition(stream, n)
	}
	if _, err := ReplayMulti(stream, configs, opt); err != nil {
		t.Fatal(err)
	}
	if asked != 1 {
		t.Errorf("replay partitioned into %d shards, want 1", asked)
	}
}

// TestReplayMultiShardsOne runs the catalogue and a hooked lane at one
// worker over a stream short enough that the blocking heuristic keeps a
// single shard, so both routes run over a one-shard partition, and
// demands every lane equal the reference walk at every prefix.
func TestReplayMultiShardsOne(t *testing.T) {
	stream := synthStream(8000, 200, 8, 7)
	configs := catalogueLanes(t, testSize, testWays)
	configsAgree(t, stream, configs, Options{Shards: 1})
	assertOneShard(t, stream, configs, Options{Shards: 1})
}

// TestReplayMultiOneSet replays a one-set geometry, which cannot split
// into shards whatever the worker count: the catalogue and a hooked lane
// at every prefix must equal the reference walk over a one-shard
// partition.
func TestReplayMultiOneSet(t *testing.T) {
	stream := synthStream(40000, 40, 8, 9)
	configs := catalogueLanes(t, 8*trace.BlockSize, 8)
	configsAgree(t, stream, configs, Options{Shards: 4})
	assertOneShard(t, stream, configs, Options{Shards: 4})
}

// TestReplayMultiCancelMidRun cancels a fused replay in flight. Both
// walks — the shard workers and the hooked lane's policy pass — must
// notice at their next poll.
func TestReplayMultiCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	stream := cancelStream(1 << 21)
	configs := []LLCConfig{
		{Size: 64 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewLRUPolicy() }},
		{Size: 64 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewLRUPolicy() },
			Hooks: Hooks{PredictShared: func(cache.AccessInfo) bool { return false }}},
	}
	start := time.Now()
	_, err := ReplayMulti(stream, configs, Options{Ctx: ctx, Shards: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; a walk is not polling", elapsed)
	}

	// Pre-cancelled contexts abort before any lane state is built.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := ReplayMulti(stream, configs, Options{Ctx: done}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
}

// TestReplayMultiValidation covers the rejection paths: missing
// factories, bad geometry, and a partitioner returning a mismatched
// partition.
func TestReplayMultiValidation(t *testing.T) {
	stream := synthStream(2000, 50, 4, 3)
	lru := func() cache.Policy { return policy.NewLRUPolicy() }
	cfg := LLCConfig{Size: testSize, Ways: testWays, NewPolicy: lru}

	if _, err := ReplayMulti(stream, []LLCConfig{{Size: testSize, Ways: testWays}}, Options{}); err == nil {
		t.Error("nil NewPolicy accepted")
	}
	if _, err := ReplayMulti(stream, []LLCConfig{{Size: testSize + 1, Ways: testWays, NewPolicy: lru}}, Options{}); err == nil {
		t.Error("bad geometry accepted")
	}
	res, err := ReplayMulti(stream, nil, Options{})
	if err != nil || res != nil {
		t.Errorf("empty configs: got (%v, %v), want (nil, nil)", res, err)
	}
	bad := func(shards int) (*PartitionIndex, error) {
		return BuildPartition(stream[:1000], 2) // wrong length and likely wrong shard count
	}
	if _, err := ReplayMulti(stream, []LLCConfig{cfg}, Options{Shards: 4, Partitioner: bad}); err == nil {
		t.Error("mismatched partition accepted")
	}
}

// rejected replays configs over a short stream and returns the error,
// failing the test when the replay succeeds or its error does not name
// the limit.
func rejected(t *testing.T, configs []LLCConfig, limit string) {
	t.Helper()
	_, err := ReplayMulti(synthStream(2000, 50, 4, 3), configs, Options{Shards: 2})
	if err == nil {
		t.Fatal("replay accepted a lane it cannot route")
	}
	if !strings.Contains(err.Error(), limit) {
		t.Errorf("error %q does not name the limit %s", err, limit)
	}
}

// TestReplayMultiRejectsWideTwoPhaseLane: a cross-set policy at 128
// ways runs two-phase, and the outcome log holds a 6-bit way. The same
// geometry under a per-set policy replays sharded.
func TestReplayMultiRejectsWideTwoPhaseLane(t *testing.T) {
	rejected(t, []LLCConfig{{Size: 64 * cache.KB, Ways: 128, NewPolicy: catalogued(t, "drrip", 1)}}, "64 ways")
	lru := LLCConfig{Size: 64 * cache.KB, Ways: 128, NewPolicy: catalogued(t, "lru", 1)}
	configsAgree(t, synthStream(4000, 3000, 8, 5), []LLCConfig{lru}, Options{Shards: 2})
}

// TestReplayMultiRejectsWideHookedLane: hooks put even a per-set policy
// on the two-phase route, so a hooked lane is held to 64 ways too.
func TestReplayMultiRejectsWideHookedLane(t *testing.T) {
	rejected(t, []LLCConfig{{Size: 64 * cache.KB, Ways: 128, NewPolicy: catalogued(t, "lru", 1),
		Hooks: Hooks{OnResidencyEnd: func(Residency) {}}}}, "64 ways")
}

// TestReplayMultiRejectsTooManyLines: a lane's line index must fit the
// outcome word's 30 bits. The policy is never built, let alone attached:
// the rejection comes before any lane state is allocated.
func TestReplayMultiRejectsTooManyLines(t *testing.T) {
	built := false
	huge := LLCConfig{Size: 2 << 30 * 64, Ways: 16, NewPolicy: func() cache.Policy { built = true; return policy.NewLRUPolicy() }}
	rejected(t, []LLCConfig{huge}, fmt.Sprint(maxLines))
	if built {
		t.Error("the lane's policy was built before the rejection")
	}
}

// TestReplayMultiPartitionerReused checks that a supplied Partitioner is
// consulted instead of rebuilding, and leaves results unchanged.
func TestReplayMultiPartitionerReused(t *testing.T) {
	stream := synthStream(20000, 200, 8, 7)
	lru := func() cache.Policy { return policy.NewLRUPolicy() }
	cfg := LLCConfig{Size: testSize, Ways: testWays, NewPolicy: lru}

	want, err := ReplayMulti(stream, []LLCConfig{cfg}, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	part := func(shards int) (*PartitionIndex, error) {
		calls++
		return BuildPartition(stream, shards)
	}
	got, err := ReplayMulti(stream, []LLCConfig{cfg}, Options{Shards: 4, Partitioner: part})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("partitioner called %d times, want 1", calls)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("cached partition changed the result")
	}
}

// TestReplayMultiHookLaneFactoryOnce pins the LLCConfig contract that
// lets callers stash protector instances: a hook lane calls NewPolicy
// exactly once no matter the shard count.
func TestReplayMultiHookLaneFactoryOnce(t *testing.T) {
	stream := synthStream(20000, 200, 8, 7)
	calls := 0
	cfg := LLCConfig{Size: testSize, Ways: testWays,
		NewPolicy: func() cache.Policy { calls++; return policy.NewLRUPolicy() },
		Hooks:     Hooks{PredictShared: func(cache.AccessInfo) bool { return false }},
	}
	if _, err := ReplayMulti(stream, []LLCConfig{cfg}, Options{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("hook lane called NewPolicy %d times, want exactly 1", calls)
	}
}

// TestBuildPartitionValidation covers the partition builder's input
// checks: shard counts that are not a power of two and unordered
// streams. One shard is a power of two: the whole stream in one segment.
func TestBuildPartitionValidation(t *testing.T) {
	stream := synthStream(100, 10, 2, 5)
	for _, shards := range []int{-2, 0, 3, 6} {
		if _, err := BuildPartition(stream, shards); err == nil {
			t.Errorf("shards=%d accepted", shards)
		}
	}
	one, err := BuildPartition(stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one.Shards != 1 || len(one.Order) != len(stream) || int(one.Offs[1]) != len(stream) || one.Cores != 2 {
		t.Errorf("one-shard partition shape wrong: %+v", one)
	}
	bad := synthStream(100, 10, 2, 5)
	bad[40].Index = 7
	if _, err := BuildPartition(bad, 4); err == nil {
		t.Error("out-of-order stream index accepted")
	}
	p, err := BuildPartition(stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards != 4 || len(p.Order) != len(stream) || int(p.Offs[4]) != len(stream) {
		t.Errorf("partition shape wrong: %+v", p)
	}
	seen := make([]bool, len(stream))
	for s := 0; s < 4; s++ {
		prev := int32(-1)
		for _, idx := range p.Order[p.Offs[s]:p.Offs[s+1]] {
			if stream[idx].Block&3 != uint64(s) {
				t.Fatalf("position %d in shard %d, block %d", idx, s, stream[idx].Block)
			}
			if idx <= prev {
				t.Fatal("shard positions not in stream order")
			}
			prev = idx
			seen[idx] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("position %d missing from partition", i)
		}
	}
}

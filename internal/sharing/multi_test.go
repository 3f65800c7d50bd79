package sharing

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
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
// sizes into ONE ReplayMulti call — mixed geometries, shardable and
// sequential lanes together — and demands each lane's full Result equal
// the sequential walk of the same configuration alone, at every prefix.
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
				t.Errorf("len %d, %s @ %d B: fused result differs from sequential\nseq: %+v\nmulti: %+v",
					len(stream), configs[i].NewPolicy().Name(), configs[i].Size, want[i], got[i])
			}
		}
	})
}

// TestReplayMultiShardsOne caps the engine at one worker (the stream is
// also short enough that the blocking heuristic keeps a single shard,
// so every lane runs as its own sequential full-stream walk) and
// demands bit-identical results there too.
func TestReplayMultiShardsOne(t *testing.T) {
	stream := synthStream(20000, 200, 8, 7)
	names := policy.Names(1)
	configs := make([]LLCConfig, len(names))
	want := make([]*Result, len(names))
	for i, n := range names {
		f, err := policy.ByName(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		configs[i] = LLCConfig{Size: testSize, Ways: testWays, NewPolicy: f}
		ref, err := seqReplay(stream, configs[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}
	got, err := ReplayMulti(stream, configs, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("%s: shards=1 fused result differs from sequential", names[i])
		}
	}
}

// TestReplayMultiCancelMidRun cancels a fused replay in flight. Both
// walks — the sharded workers and the sequential lane walk (forced by
// the hook lane) — must notice at their next poll.
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
// checks: non-power-of-two shard counts and unordered streams.
func TestBuildPartitionValidation(t *testing.T) {
	stream := synthStream(100, 10, 2, 5)
	for _, shards := range []int{0, 1, 3, 6} {
		if _, err := BuildPartition(stream, shards); err == nil {
			t.Errorf("shards=%d accepted", shards)
		}
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

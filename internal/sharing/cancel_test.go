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

// cancelStream builds a stream long enough to straddle many cancel
// polls (one per batchSize-access chunk).
func cancelStream(n int) []cache.AccessInfo {
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		blk := uint64(i % 4096)
		stream[i] = cache.AccessInfo{Block: blk, Core: uint8(i % 4), Index: int32(i)}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

// lruLane64K is the cancellation tests' lane: a 64 KB 8-way LRU.
func lruLane64K() LLCConfig {
	return LLCConfig{Size: 64 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewLRUPolicy() }}
}

func TestReplayPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stream := cancelStream(1 << 16)
	_, err := ReplayMulti(stream, []LLCConfig{lruLane64K()}, Options{Ctx: ctx, Shards: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("one-worker replay with cancelled ctx: err = %v, want context.Canceled", err)
	}
	_, err = ReplayMulti(stream, []LLCConfig{lruLane64K()}, Options{Ctx: ctx, Shards: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel replay with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestReplayCancelledMidStream(t *testing.T) {
	// A context that expires while the replay is in flight: the replay
	// must notice at the next poll rather than running to completion.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	stream := cancelStream(1 << 22) // tens of ms of replay work
	start := time.Now()
	_, err := ReplayMulti(stream, []LLCConfig{lruLane64K()}, Options{Ctx: ctx, Shards: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; the poll stride is not being honoured", elapsed)
	}
}

func TestReplayNilCtxUnchanged(t *testing.T) {
	// Cancellation support must not perturb results: a replay with a
	// live context matches the reference walk, at one worker and at the
	// automatic worker count.
	stream := cancelStream(1 << 16)
	base, err := seqReplay(stream, lruLane64K(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := ReplayMulti(stream, []LLCConfig{lruLane64K()}, Options{Ctx: context.Background(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := ReplayMulti(stream, []LLCConfig{lruLane64K()}, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{one[0], multi[0]} {
		if base.Hits != r.Hits || base.Misses != r.Misses || base.SharedHits != r.SharedHits {
			t.Errorf("results diverge with ctx: %+v vs %+v", base, r)
		}
	}
}

// cancelledMidPass cancels a replay at tier from inside its first lane's
// policy pass. The replay must return the context's error; the abandoned
// pass must hand none of its arrays back to the mem pool — neither its
// block → line table, columns and census nor its policy's state, which
// stays with the policy — and the next replay at tier from the same pool
// must equal project of the reference walk.
func cancelledMidPass(t *testing.T, tier Tier, project func(*Result) *Result) {
	t.Helper()
	stream := cancelStream(1 << 16)
	ref, err := seqReplay(stream, lruLane64K(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	predicted := 0
	canceller := lruLane64K()
	var lru *policy.LRUPolicy
	canceller.NewPolicy = func() cache.Policy { lru = policy.NewLRUPolicy(); return lru }
	canceller.Hooks = Hooks{PredictShared: func(cache.AccessInfo) bool {
		if predicted++; predicted == 1000 {
			cancel()
		}
		return false
	}}
	words := drainPool[uint32]()
	defer restorePool(words)
	_, err = ReplayMulti(stream, []LLCConfig{canceller, lruLane64K()}, Options{Ctx: ctx, Shards: 1, Tier: tier})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("tier %d: err = %v, want context.Canceled", tier, err)
	}
	if uint64(predicted) >= ref.Misses {
		t.Fatalf("tier %d: the pass ran to its end (%d predictions, %d misses) before noticing the cancel", tier, predicted, ref.Misses)
	}
	if back := drainPool[uint32](); len(back) != 0 {
		t.Errorf("tier %d: the cancelled replay handed %d word arrays back to the pool", tier, len(back))
		restorePool(back)
	}
	if stamp, _ := lru.KernelState(); stamp == nil {
		t.Errorf("tier %d: the cancelled pass released its policy", tier)
	}
	got, err := ReplayMulti(stream, []LLCConfig{lruLane64K()}, Options{Shards: 1, Tier: tier})
	if err != nil {
		t.Fatal(err)
	}
	if want := project(ref); !reflect.DeepEqual(got[0], want) {
		t.Errorf("tier %d replay after the cancel: %+v, want %+v", tier, got[0], want)
	}
}

// TestReplayCountsOnlyCancelledMidPass is cancelledMidPass for the
// CountsOnly tier.
func TestReplayCountsOnlyCancelledMidPass(t *testing.T) {
	cancelledMidPass(t, CountsOnly, countsOf)
}

// TestReplaySharedHitsCancelledMidPass is cancelledMidPass for the
// SharedHitsOnly tier: the abandoned pass also leaves its streak column
// and per-line words behind, and the next replay must not inherit them.
func TestReplaySharedHitsCancelledMidPass(t *testing.T) {
	cancelledMidPass(t, SharedHitsOnly, sharedHitsOf)
}

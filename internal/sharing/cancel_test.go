package sharing

import (
	"context"
	"errors"
	"reflect"
	"slices"
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

// TestReplayCountsOnlyCancelledMidPass cancels a counts-only replay from
// inside its first lane's policy pass. The replay must return the
// context's error, the abandoned pass must not return its dirty block →
// line table to the words pool (whose at-rest invariant is all-zero),
// and the next counts-only replay from the same pools must equal the
// reference walk's counts.
func TestReplayCountsOnlyCancelledMidPass(t *testing.T) {
	stream := cancelStream(1 << 16)
	ref, err := seqReplay(stream, lruLane64K(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	predicted := 0
	canceller := lruLane64K()
	canceller.Hooks = Hooks{PredictShared: func(cache.AccessInfo) bool {
		if predicted++; predicted == 1000 {
			cancel()
		}
		return false
	}}
	_, err = ReplayMulti(stream, []LLCConfig{canceller, lruLane64K()}, Options{Ctx: ctx, Shards: 1, CountsOnly: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if uint64(predicted) >= ref.Misses {
		t.Fatalf("the pass ran to its end (%d predictions, %d misses) before noticing the cancel", predicted, ref.Misses)
	}
	scratch.mu.Lock()
	for _, words := range scratch.words {
		if slices.ContainsFunc(words, func(w uint32) bool { return w != 0 }) {
			t.Error("the cancelled pass returned a dirty block → line table to the words pool")
		}
	}
	scratch.mu.Unlock()
	got, err := ReplayMulti(stream, []LLCConfig{lruLane64K()}, Options{Shards: 1, CountsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], countsOf(ref)) {
		t.Errorf("replay after the cancel: %+v, want %+v", got[0], countsOf(ref))
	}
}

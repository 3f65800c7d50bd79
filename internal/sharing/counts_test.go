package sharing

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sharellc/internal/cache"
)

// countsOf is what a counts-only replay must return for a lane whose
// tracked Result is r: its policy and three counts, zero elsewhere.
func countsOf(r *Result) *Result {
	return &Result{Policy: r.Policy, Accesses: r.Accesses, Hits: r.Hits, Misses: r.Misses}
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
		counted.CountsOnly = true
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

// TestReplayMultiCountsOnly holds Options.CountsOnly to the tracked
// replay at every prefix: the catalogue's 14 policies plus a hooked lane
// at two geometries, a 128-way lane (sharded when tracked, a policy pass
// counts only), a stream short enough for one shard, and an empty
// stream. Every refusal of the tracked replay stands: the Index
// invariant with the same error, and the way, line and core limits.
func TestReplayMultiCountsOnly(t *testing.T) {
	countsAgree(t, synthStream(40000, 3000, 8, 7), catalogueLanes(t, 64*cache.KB, 8), Options{Shards: 4})
	countsAgree(t, synthStream(8000, 200, 8, 7), catalogueLanes(t, testSize, testWays), Options{Shards: 1})
	countsAgree(t, synthStream(4000, 3000, 8, 5), []LLCConfig{{Size: 64 * cache.KB, Ways: 128, NewPolicy: catalogued(t, "lru", 1)}}, Options{Shards: 2})
	countsAgree(t, nil, catalogueLanes(t, testSize, testWays), Options{})

	bad := synthStream(2000, 50, 4, 3)
	bad[1500].Index = 7
	lru := []LLCConfig{{Size: testSize, Ways: testWays, NewPolicy: catalogued(t, "lru", 1)}}
	_, want := ReplayMulti(bad, lru, Options{})
	_, got := ReplayMulti(bad, lru, Options{CountsOnly: true})
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("broken Index invariant: counts-only error %v, tracked %v", got, want)
	}

	refused := func(stream []cache.AccessInfo, c LLCConfig, limit string) {
		t.Helper()
		_, err := ReplayMulti(stream, []LLCConfig{c}, Options{Shards: 2, CountsOnly: true})
		if err == nil || !strings.Contains(err.Error(), limit) {
			t.Errorf("counts-only replay: err = %v, want the limit %s", err, limit)
		}
	}
	short := synthStream(2000, 50, 4, 3)
	refused(short, LLCConfig{Size: 64 * cache.KB, Ways: 128, NewPolicy: catalogued(t, "drrip", 1)}, "64 ways")
	refused(short, LLCConfig{Size: 2 << 30 * 64, Ways: 16, NewPolicy: catalogued(t, "lru", 1)}, fmt.Sprint(maxLines))
	refused(synthStream(2000, 50, soaMaxCores+1, 3), lru[0], fmt.Sprint(soaMaxCores))
}

// TestReplayMultiCountsOnlyAllocSteady: a counts-only replay allocates a
// count of objects independent of stream length, never asks its
// Partitioner for a partition, and grabs no tracker, log, census or
// gather scratch — the pools of those kinds, drained first, stay empty,
// where a grab on the replay's success path would have returned its
// fresh slice to them. Wired into CI via `go test -run Alloc`.
func TestReplayMultiCountsOnlyAllocSteady(t *testing.T) {
	long := synthStream(60000, 3000, 8, 7)
	configs := []LLCConfig{
		{Size: 64 * cache.KB, Ways: 8, NewPolicy: catalogued(t, "lru", 1)},
		{Size: 64 * cache.KB, Ways: 8, NewPolicy: catalogued(t, "drrip", 3)},
	}
	asked := 0
	opt := Options{Shards: 2, CountsOnly: true, Partitioner: func(int) (*PartitionIndex, error) {
		asked++
		return nil, errors.New("a counts-only replay walks no partition")
	}}
	run := func(stream []cache.AccessInfo) func() {
		return func() {
			if _, err := ReplayMulti(stream, configs, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(long)() // warm the scratch pool

	scratch.mu.Lock()
	hcs, bytes, accs := scratch.hcs, scratch.bytes, scratch.accs
	scratch.hcs, scratch.bytes, scratch.accs = nil, nil, nil
	scratch.mu.Unlock()
	defer func() {
		scratch.mu.Lock()
		scratch.hcs, scratch.bytes, scratch.accs = hcs, bytes, accs
		scratch.mu.Unlock()
	}()
	short := testing.AllocsPerRun(3, run(long[:15000]))
	full := testing.AllocsPerRun(3, run(long))
	if asked != 0 {
		t.Errorf("the Partitioner was asked %d times", asked)
	}
	scratch.mu.Lock()
	grabbed := len(scratch.hcs) + len(scratch.bytes) + len(scratch.accs)
	scratch.mu.Unlock()
	if grabbed != 0 {
		t.Errorf("a counts-only replay grabbed %d tracker, log, census or gather arrays", grabbed)
	}
	// Per-replay bookkeeping (two lanes, two workers, two results)
	// measures a few dozen objects either way.
	if full > short+10 || full > 100 {
		t.Errorf("counts-only replay allocated %.0f objects over 15k accesses and %.0f over 60k; want a count independent of length", short, full)
	}
}

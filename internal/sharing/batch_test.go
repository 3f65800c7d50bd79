package sharing

import (
	"reflect"
	"runtime"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/policy"
)

// batchTestConfigs builds one lane per experiment family: every
// registered policy (per-set and cross-set state alike), a hooked LRU
// lane (its PredictShared hook counts into hookCount) and a 128-way LRU
// lane (wider than the 64 ways the LRU kernels bind).
func batchTestConfigs(t *testing.T, size, ways int, hookCount *uint64) []LLCConfig {
	t.Helper()
	var configs []LLCConfig
	for _, n := range policy.Names(1) {
		f, err := policy.ByName(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		configs = append(configs, LLCConfig{Size: size, Ways: ways, NewPolicy: f})
	}
	lru := func() cache.Policy { return &cache.LRU{} }
	configs = append(configs, LLCConfig{Size: size, Ways: ways, NewPolicy: lru,
		Hooks: Hooks{PredictShared: func(cache.AccessInfo) bool { *hookCount++; return false }}})
	configs = append(configs, LLCConfig{Size: size, Ways: 128, NewPolicy: lru})
	return configs
}

// TestKernelVsSequential replays every experiment family — the full
// policy catalogue, a hooked lane and a 128-way lane — through the lane
// engine's batched walks and demands byte-equal Results against the
// scalar reference walk of each lane alone — counters, degree
// histograms and block census — at every prefix. The hooked lane must
// be asked for a prediction exactly once per miss per replay.
func TestKernelVsSequential(t *testing.T) {
	var hooks uint64
	configs := batchTestConfigs(t, 64*cache.KB, 8, &hooks)
	full := synthStream(40000, 3000, 8, 7)
	configsAgree(t, full, configs, Options{})
	var want uint64
	bare := LLCConfig{Size: 64 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return &cache.LRU{} }}
	eachPrefix(full, func(stream []cache.AccessInfo) {
		res, err := seqReplay(stream, bare, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want += 2 * res.Misses // the engine replay and the reference each walk it
	})
	if hooks != want {
		t.Errorf("hooked lane predicted %d misses over every prefix, want %d", hooks, want)
	}
}

// kernelsAgree holds one per-set (LRU) and one cross-set (DRRIP) lane
// to the reference walk at every prefix of stream (see configsAgree).
func kernelsAgree(t *testing.T, stream []cache.AccessInfo, size, ways int) {
	t.Helper()
	configsAgree(t, stream, []LLCConfig{
		{Size: size, Ways: ways, NewPolicy: func() cache.Policy { return &cache.LRU{} }},
		{Size: size, Ways: ways, NewPolicy: catalogued(t, "drrip", 3)},
	}, Options{})
}

// configsAgree replays every eachPrefix prefix of full through configs
// in one ReplayMulti call and demands each lane's Result equal the
// reference walk of that lane alone, with the lane's hooks. Counters,
// degree histograms and block census must all match.
func configsAgree(t *testing.T, full []cache.AccessInfo, configs []LLCConfig, opt Options) {
	t.Helper()
	eachPrefix(full, func(stream []cache.AccessInfo) {
		got, err := ReplayMulti(stream, configs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range configs {
			want, err := seqReplay(stream, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("len %d, config %d (%s @ %d ways): engine result differs from the reference walk\nengine:    %+v\nreference: %+v",
					len(stream), i, want.Policy, c.Ways, got[i], want)
			}
		}
	})
}

// TestKernelBoundaryLengths pins the chunk-loop edges: streams of
// exactly batchSize−1, batchSize and batchSize+1 accesses (the chunk
// boundary), empty and single-access streams, and a length that leaves
// a short tail chunk.
func TestKernelBoundaryLengths(t *testing.T) {
	for _, n := range []int{0, 1, batchSize - 1, batchSize, batchSize + 1, 2*batchSize + 37} {
		stream := synthStream(n, 300, 4, uint64(n)+3)
		kernelsAgree(t, stream, 16*1024, 4)
	}
}

// FuzzKernelBoundary fuzzes stream length and block population around
// the batch boundaries AND the policy running the lane: pol selects one
// specialized policy from the realistic catalogue, so the fuzzer
// explores every monomorphic kernel against the reference walk, which runs no kernel at all. Every case
// must replay bit-identically at every prefix.
func FuzzKernelBoundary(f *testing.F) {
	var kernelPolicies []string
	for _, n := range policy.Names(1) {
		if n != "opt" { // OPT binds no kernel
			kernelPolicies = append(kernelPolicies, n)
		}
	}
	for i, n := range []uint16{0, 1, batchSize - 1, batchSize, batchSize + 1} {
		f.Add(n, uint64(i+1), uint8(i))
	}
	f.Add(uint16(3000), uint64(9), uint8(len(kernelPolicies)-1))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64, pol uint8) {
		stream := synthStream(int(n), 200, 4, seed)
		kernelsAgree(t, stream, 16*1024, 4)
		name := kernelPolicies[int(pol)%len(kernelPolicies)]
		fac, err := policy.ByName(name, seed|1)
		if err != nil {
			t.Fatal(err)
		}
		configsAgree(t, stream, []LLCConfig{
			{Size: 16 * 1024, Ways: 4, NewPolicy: func() cache.Policy { return fac() }},
		}, Options{})
	})
}

// TestReplayMultiAllocSteady asserts the fused replay's hot loops stay
// allocation-free: once the mem pool is warm, a whole ReplayMulti
// sweep allocates only per-lane bookkeeping (results, degree
// histograms, goroutines) — a count independent of stream length, orders
// of magnitude below one allocation per access. Wired into CI via
// `go test -run Alloc`.
func TestReplayMultiAllocSteady(t *testing.T) {
	stream := synthStream(60000, 3000, 8, 7)
	configs := []LLCConfig{
		{Size: 64 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return &cache.LRU{} }},
		{Size: 64 * cache.KB, Ways: 8, NewPolicy: catalogued(t, "drrip", 3)},
	}
	opt := Options{}
	run := func() {
		if _, err := ReplayMulti(stream, configs, opt); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the mem pool
	allocs := testing.AllocsPerRun(3, run)
	// ~60k accesses × 2 lanes: anything near one alloc per access means
	// a hot loop started allocating. A warm sweep measures ~30 objects
	// of per-sweep bookkeeping (degree histograms, goroutine stacks,
	// result structs); the budget leaves room for scheduler variance
	// while still tripping on any per-chunk leak.
	if allocs > 400 {
		t.Errorf("ReplayMulti allocated %.0f objects per sweep; hot loop is allocating (budget 400)", allocs)
	}
}

// TestHookedProtectorLaneAllocSteady is the same gate for a hooked
// protected lane: a lane whose PredictShared hook feeds a
// core.Protector over LRU (the experiments' protected lanes carry their
// hint inside the policy instead; see oracle.TestHintedLaneAllocSteady).
// Attaching the hint used to heap-allocate one AccessInfo per fill and
// victim selection a closure and a boxed slice per protected miss; now
// the count must not grow with the stream.
func TestHookedProtectorLaneAllocSteady(t *testing.T) {
	long := synthStream(60000, 3000, 8, 7)
	var prot *core.Protector
	configs := []LLCConfig{{Size: 64 * cache.KB, Ways: 8,
		NewPolicy: func() cache.Policy {
			prot = core.NewProtectorOpts(&cache.LRU{}, core.Options{Strength: core.Full})
			return prot
		},
		Hooks: Hooks{PredictShared: func(a cache.AccessInfo) bool { return a.Block%4 == 0 }},
	}}
	run := func(stream []cache.AccessInfo) func() {
		return func() {
			if _, err := ReplayMulti(stream, configs, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(long)() // warm the mem pool
	if st := prot.Stats(); st.Exclusions == 0 {
		t.Fatalf("lane never excluded a protected victim: %+v", st)
	}
	short := testing.AllocsPerRun(3, run(long[:15000]))
	full := testing.AllocsPerRun(3, run(long))
	// The long stream has four times the accesses (tens of thousands more
	// fills); per-replay bookkeeping (the lane, the pool's loop and the hooked
	// wrapper's residency lines) measures ~40 objects either way.
	if full > short+20 || full > 200 {
		t.Errorf("hooked protector lane allocated %.0f objects over 15k accesses and %.0f over 60k; want a count independent of length", short, full)
	}
}

// TestPolicyPassAllocNoTagArray pins that a lane's policy pass builds no
// tag array: once the mem pool is warm, a one-lane replay at the
// F4 geometry (4 MB, 16 ways) allocates fewer bytes than one tag array
// of sets*ways words would take alone. The lanes' policies keep little
// per-line state of their own (Random none, PLRU one word per set), and
// OPT, whose per-line next-use column is half a tag array, runs the
// generic loop. Wired into CI via `go test -run Alloc`.
func TestPolicyPassAllocNoTagArray(t *testing.T) {
	const size, ways = 4 * cache.MB, 16
	stream := synthStream(60000, 3000, 8, 7)
	cache.AnnotateNextUse(stream)
	sets, err := cache.Geometry(size, ways)
	if err != nil {
		t.Fatal(err)
	}
	tagArray := uint64(sets * ways * 8)
	for _, name := range []string{"random", "plru", "opt"} {
		configs := []LLCConfig{{Size: size, Ways: ways, NewPolicy: catalogued(t, name, 1)}}
		run := func() {
			if _, err := ReplayMulti(stream, configs, Options{Tier: CountsOnly}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the mem pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= tagArray {
			t.Errorf("%s: a warm policy pass allocated %d bytes, not below one %d-byte tag array", name, n, tagArray)
		} else {
			t.Logf("%s: a warm policy pass allocated %d bytes (tag array %d)", name, n, tagArray)
		}
	}
}

package predictor

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
	"sharellc/internal/sharing"
)

// drivenSize is the LLC of the driven-lane tests: 1024 lines, so 8 to
// 128 ways leave 128 to 8 sets.
const drivenSize = 64 * cache.KB

// predictors builds one fresh instance of each of the six predictors,
// the coherence predictor over stream.
func predictors(t *testing.T, stream []cache.AccessInfo) []Predictor {
	t.Helper()
	addr, err := NewAddress(Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPC(Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	tour, err := NewTournament(Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	coh, err := NewCoherence(stream, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return []Predictor{addr, pc, tour, coh, Always{}, Never{}}
}

// drivenLane is the policy of an F8 lane: base protected under opts and
// hinted by pred.
func drivenLane(base cache.Policy, opts core.Options, pred Predictor) *core.Lane {
	return core.NewLane(core.NewProtectorOpts(base, opts), NewDriven(pred))
}

// drivenStream builds an annotated pseudo-random stream whose blocks
// recur on a few PCs and cores, so history predictors learn and flip.
func drivenStream(n int, blocks uint64, seed uint64) []cache.AccessInfo {
	r := rng.New(seed)
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		b := r.Uint64n(blocks)
		stream[i] = cache.AccessInfo{Block: b, Core: uint8(r.Intn(8)), PC: 0x400 + b%13*4, Write: r.Intn(5) == 0, Index: int32(i)}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

// TestDrivenLaneMatchesHooked holds the hook-free predictor-driven lane
// to its hooked form — a Protector over LRU with HooksFor(pred) — for
// all six predictors at 8, 16 and 64 ways under every protection
// setting, at several stream prefixes. Every Result field and every
// Protector counter must match. The hook-free lane must call NewPolicy
// exactly once. Over LRU up to 64 ways its policy pass must run the
// protected-LRU kernel; the DRRIP and 128-way cases hold the generic
// loop to the hooked reference. A fresh driven lane replayed counts only
// (sharing.CountsOnly) must return the hooked lane's counts, zero
// elsewhere, and its Protector counters.
func TestDrivenLaneMatchesHooked(t *testing.T) {
	full := drivenStream(24000, 3000, 5)
	n := len(full)
	optionSets := []core.Options{
		{Strength: core.Full},
		{Strength: core.InsertOnly},
		{Strength: core.Full, ClearOnFulfil: true},
		{Strength: core.Full, SkipBudget: 1},
		{Strength: core.Full, SkipBudget: -1},
	}
	drrip, err := policy.ByName("drrip", 3)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]func() cache.Policy{"lru": lru, "drrip": drrip}
	prefixes := []int{n / 7, n / 3, n / 2, n}
	if testing.Short() {
		prefixes = []int{n / 3, n} // the race step's budget
	}
	for _, m := range prefixes {
		stream := slices.Clone(full[:m])
		cache.AnnotateNextUse(stream)
		for _, ways := range []int{8, 16, 64, 128} {
			for oi, opts := range optionSets {
				for name, base := range bases {
					for pi, pred := range predictors(t, stream) {
						at := fmt.Sprintf("%s over %s, %d ways, opts %d, len %d", pred.Name(), name, ways, oi, m)
						calls := 0
						var drv *core.Lane
						lane := sharing.LLCConfig{Size: drivenSize, Ways: ways, NewPolicy: func() cache.Policy {
							calls++
							drv = drivenLane(base(), opts, pred)
							return drv
						}}
						got, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{lane}, sharing.Options{})
						var ref *core.Protector
						hooked := sharing.LLCConfig{Size: drivenSize, Ways: ways, Hooks: HooksFor(predictors(t, stream)[pi]),
							NewPolicy: func() cache.Policy {
								ref = core.NewProtectorOpts(base(), opts)
								return ref
							}}
						want, refErr := sharing.ReplayMulti(stream, []sharing.LLCConfig{hooked}, sharing.Options{})
						// The counts-only leg: a fresh driven lane run as its
						// policy pass alone.
						var cdrv *core.Lane
						counted, countErr := sharing.ReplayMulti(stream, []sharing.LLCConfig{{Size: drivenSize, Ways: ways,
							NewPolicy: func() cache.Policy {
								cdrv = drivenLane(base(), opts, predictors(t, stream)[pi])
								return cdrv
							}}}, sharing.Options{Tier: sharing.CountsOnly})
						for _, err := range []error{err, refErr, countErr} {
							if err != nil {
								t.Fatal(err)
							}
						}
						if !reflect.DeepEqual(got[0], want[0]) {
							t.Errorf("%s: driven lane differs from the hooked lane\ndriven: %+v\nhooked: %+v", at, got[0], want[0])
						}
						counts := sharing.Result{Policy: want[0].Policy, Accesses: want[0].Accesses, Hits: want[0].Hits, Misses: want[0].Misses}
						if !reflect.DeepEqual(*counted[0], counts) {
							t.Errorf("%s: counts-only lane %+v, want the hooked lane's counts %+v", at, *counted[0], counts)
						}
						for _, d := range []*core.Lane{drv, cdrv} {
							if d.Stats() != ref.Stats() {
								t.Errorf("%s: protector stats %+v, hooked %+v", at, d.Stats(), ref.Stats())
							}
						}
						if calls != 1 {
							t.Errorf("%s: NewPolicy called %d times, want 1", at, calls)
						}
						if got, want := drivenKernel(t, drivenLane(base(), opts, Never{}), ways), name == "lru" && ways <= 64; got != want {
							t.Errorf("%s: lane binds a batch kernel %v, want %v", at, got, want)
						}
					}
				}
			}
		}
	}
}

// drivenKernel reports whether a cache of drivenSize and ways over pol
// binds a batch kernel, as the lane's policy pass's cache does.
func drivenKernel(t *testing.T, pol cache.Policy, ways int) bool {
	t.Helper()
	c, err := cache.NewSetAssoc(drivenSize, ways, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c.HasBatchKernel()
}

// TestDrivenLaneAllocSteady is TestReplayMultiAllocSteady's gate with an
// F8 leg in the mix — bare LRU, DRRIP and an address-predictor-driven
// lane: once the mem pool is warm, a replay allocates only per-lane
// bookkeeping, orders of magnitude below one object per
// access. The driven lane runs the protected-LRU kernel.
func TestDrivenLaneAllocSteady(t *testing.T) {
	stream := drivenStream(60000, 3000, 7)
	drrip, err := policy.ByName("drrip", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !drivenKernel(t, drivenLane(lru(), core.Options{Strength: core.Full}, Never{}), 8) {
		t.Fatal("the LRU driven lane binds no batch kernel")
	}
	run := func() {
		pred, err := NewAddress(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		configs := []sharing.LLCConfig{
			{Size: drivenSize, Ways: 8, NewPolicy: lru},
			{Size: drivenSize, Ways: 8, NewPolicy: drrip},
			{Size: drivenSize, Ways: 8, NewPolicy: func() cache.Policy {
				return drivenLane(lru(), core.Options{Strength: core.Full}, pred)
			}},
		}
		if _, err := sharing.ReplayMulti(stream, configs, sharing.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the mem pool
	if allocs := testing.AllocsPerRun(3, run); allocs > 400 {
		t.Errorf("replay allocated %.0f objects over 60k accesses x 3 lanes; a hot loop is allocating (budget 400)", allocs)
	}
}

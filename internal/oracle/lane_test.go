package oracle

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/mem"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
	"sharellc/internal/sharing"
)

// laneSize is the LLC of the lane tests: 1024 lines, so 8 to 128 ways
// leave 128 to 8 sets.
const laneSize = 64 * cache.KB

// laneOptions are the protection settings the route tests cover.
var laneOptions = []core.Options{
	{Strength: core.Full},
	{Strength: core.InsertOnly},
	{Strength: core.Full, ClearOnFulfil: true},
	{Strength: core.Full, SkipBudget: 1},
	{Strength: core.Full, SkipBudget: -1},
}

// laneStream builds an annotated pseudo-random stream with enough blocks
// to keep every set of laneSize evicting and enough cores to share.
func laneStream(n int, blocks uint64, seed uint64) []cache.AccessInfo {
	r := rng.New(seed)
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		b := r.Uint64n(blocks)
		stream[i] = cache.AccessInfo{Block: b, Core: uint8(r.Intn(8)), PC: 0x400 + b%7*4, Write: r.Intn(5) == 0, Index: int32(i)}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

// eachPrefix calls f on the n/7, n/3, n/2 and n prefixes of stream, each
// re-annotated as a stream of its own.
func eachPrefix(stream []cache.AccessInfo, f func(prefix []cache.AccessInfo)) {
	n := len(stream)
	for _, m := range []int{n / 7, n / 3, n / 2, n} {
		p := slices.Clone(stream[:m])
		cache.AnnotateNextUse(p)
		f(p)
	}
}

// hintSources are the hint columns the lane tests replay under: the
// oracle's, which hints far more than the gate's threshold of 1/32 of
// fills, and one that hints every 32nd access, so the share of hinted
// fills sits at that threshold and a lane that counts a fill into the
// gate on the wrong side of its demotion decision demotes differently.
var hintSources = []struct {
	name  string
	hints func(stream []cache.AccessInfo) []bool
}{
	{"oracle", func(stream []cache.AccessInfo) []bool { return SharedHints(stream, Horizon(laneSize, HorizonFactor)) }},
	{"gate threshold", func(stream []cache.AccessInfo) []bool {
		hints := make([]bool, len(stream))
		for i := range hints {
			hints[i] = i%32 == 0
		}
		return hints
	}},
}

// TestHintedLaneMatchesHooked holds the hook-free oracle lane — a
// core.Lane hinted by a Hints column — to its hooked form: the same
// Protector told each fill's hint by a PredictShared hook. Every Result
// field and every Protector counter must match at 8, 16, 64 and 128 ways
// under every protection setting, over a per-set (LRU) and a cross-set
// (DRRIP) base, at several stream prefixes, under each of hintSources.
// Its policy pass must run the protected-LRU kernel over LRU up to 64
// ways and the generic loop otherwise, so the hooked reference holds
// both. The same lane replayed counts only (sharing.CountsOnly) must
// return the hooked lane's counts, zero elsewhere, and its Protector
// counters.
func TestHintedLaneMatchesHooked(t *testing.T) {
	full := laneStream(24000, 3000, 7)
	drrip, err := policy.ByName("drrip", 3)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]func() cache.Policy{
		"lru":   func() cache.Policy { return policy.NewLRUPolicy() },
		"drrip": drrip,
	}
	for _, ways := range []int{8, 16, 64, 128} {
		for oi, opts := range laneOptions {
			for name, base := range bases {
				for _, src := range hintSources {
					eachPrefix(full, func(stream []cache.AccessInfo) {
						hints := src.hints(stream)
						replay := func(opt sharing.Options) (*sharing.Result, core.Stats, error) {
							prot := core.NewProtectorOpts(base(), opts)
							got, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{{Size: laneSize, Ways: ways,
								NewPolicy: func() cache.Policy { return core.NewLane(prot, Hints(hints)) }}}, opt)
							if err != nil {
								return nil, core.Stats{}, err
							}
							return got[0], prot.Stats(), nil
						}
						res, stats, err := replay(sharing.Options{})
						// The counts-only leg: the lane run as its policy pass
						// alone must count and protect exactly as the hooked lane.
						counted, countStats, countErr := replay(sharing.Options{Tier: sharing.CountsOnly})
						var asked uint64
						var ref *core.Protector
						hooked := sharing.LLCConfig{Size: laneSize, Ways: ways,
							Hooks: sharing.Hooks{PredictShared: func(a cache.AccessInfo) bool { asked++; return hints[a.Index] }},
							NewPolicy: func() cache.Policy {
								ref = core.NewProtectorOpts(base(), opts)
								return ref
							}}
						want, refErr := sharing.ReplayMulti(stream, []sharing.LLCConfig{hooked}, sharing.Options{})
						at := fmt.Sprintf("%s, %d ways, opts %d, %s hints, len %d", name, ways, oi, src.name, len(stream))
						for _, err := range []error{err, refErr, countErr} {
							if err != nil {
								t.Fatal(err)
							}
						}
						if asked != want[0].Misses {
							t.Fatalf("%s: hooked lane asked for %d hints on %d misses", at, asked, want[0].Misses)
						}
						if !reflect.DeepEqual(res, want[0]) {
							t.Errorf("%s: hint-column lane differs from the hooked lane\ncolumn: %+v\nhooked: %+v", at, res, want[0])
						}
						counts := sharing.Result{Policy: want[0].Policy, Accesses: want[0].Accesses, Hits: want[0].Hits, Misses: want[0].Misses}
						if !reflect.DeepEqual(*counted, counts) {
							t.Errorf("%s: counts-only lane %+v, want the hooked lane's counts %+v", at, *counted, counts)
						}
						for _, st := range []core.Stats{stats, countStats} {
							if st != ref.Stats() {
								t.Errorf("%s: protector stats %+v, hooked %+v", at, st, ref.Stats())
							}
						}
						if got, want := laneKernel(t, core.NewLane(core.NewProtectorOpts(base(), opts), Hints(hints)), ways), name == "lru" && ways <= 64; got != want {
							t.Errorf("%s: lane binds a batch kernel %v, want %v", at, got, want)
						}
					})
				}
			}
		}
	}
}

// laneKernel reports whether a cache of laneSize and ways over pol binds
// a batch kernel, as the lane's policy pass's cache does.
func laneKernel(t *testing.T, pol cache.Policy, ways int) bool {
	t.Helper()
	c, err := cache.NewSetAssoc(laneSize, ways, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c.HasBatchKernel()
}

// TestHintedLaneAllocSteady is TestReplayMultiAllocSteady's gate with an
// oracle study in the mix — the bare and hint-column lanes of LRU and
// DRRIP, plus the hint pass: once the mem pool is warm, a study
// allocates only per-lane bookkeeping, orders of magnitude
// below one object per access. The LRU hint-column lane runs the
// protected-LRU kernel.
func TestHintedLaneAllocSteady(t *testing.T) {
	stream := laneStream(60000, 3000, 7)
	drrip, err := policy.ByName("drrip", 3)
	if err != nil {
		t.Fatal(err)
	}
	factories := []func() cache.Policy{func() cache.Policy { return policy.NewLRUPolicy() }, drrip}
	full := core.Options{Strength: core.Full}
	if !laneKernel(t, core.NewLane(core.NewProtectorOpts(factories[0](), full), Hints(make([]bool, len(stream)))), 8) {
		t.Fatal("the LRU hint-column lane binds no batch kernel")
	}
	run := func() {
		cols := Columns(stream, 0, []int64{Horizon(laneSize, HorizonFactor)})
		var lanes []sharing.LLCConfig
		for _, f := range factories {
			lanes = append(lanes, sharing.LLCConfig{Size: laneSize, Ways: 8, NewPolicy: f},
				sharing.LLCConfig{Size: laneSize, Ways: 8, NewPolicy: func() cache.Policy {
					return core.NewLane(core.NewProtectorOpts(f(), full), Hints(cols[0]))
				}})
		}
		if _, err := sharing.ReplayMulti(stream, lanes, sharing.Options{}); err != nil {
			t.Fatal(err)
		}
		mem.Release(cols[0])
	}
	run() // warm the mem pool
	if allocs := testing.AllocsPerRun(3, run); allocs > 400 {
		t.Errorf("oracle study allocated %.0f objects over 60k accesses x 4 lanes; a hot loop is allocating (budget 400)", allocs)
	}
}

package mem_test

import (
	"reflect"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/mem"
	"sharellc/internal/oracle"
	"sharellc/internal/policy"
	"sharellc/internal/predictor"
	"sharellc/internal/rng"
	"sharellc/internal/sharing"
)

// recycleStream is a uniform stream over more blocks than an 8 MB LLC
// holds, from eight cores, annotated for OPT: every lane below evicts.
func recycleStream() []cache.AccessInfo {
	r := rng.New(11)
	stream := make([]cache.AccessInfo, 400000)
	for i := range stream {
		b := r.Uint64n(160000)
		stream[i] = cache.AccessInfo{Block: b, PC: 0x400 + b%29*4, Core: uint8(r.Intn(8)), Write: r.Intn(5) == 0, Index: int32(i)}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

// recycleStep is one replay of TestRecycledLanesEqualFresh: its lanes'
// Results, the protector counters of its oracle lane and the matrices
// of its scored lane.
type recycleStep struct {
	results []*sharing.Result
	stats   []core.Stats
	scores  []predictor.PredStats
}

// TestRecycledLanesEqualFresh replays a sequence whose lanes take each
// other's arrays from the mem pool — across element types, sizes and
// lane kinds: DRRIP at 8 MB then SRRIP at 4 MB, OPT after LRU, SHiP-S
// after SHiP, a protected lane after a bare one, a scored lane after
// another, oracle cells at another horizon, and lanes over a stream
// prefix too short to fill every line after lanes that filled them —
// at every tier. Run back to back, twice, every step's Results,
// Protector counters and confusion matrices must equal the step's
// lanes replayed one by one, each on an empty pool (mem.Drain before
// it), where every array is fresh.
func TestRecycledLanesEqualFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 400k accesses through 4 and 8 MB lanes")
	}
	full := recycleStream()
	lane := func(name string, size int) sharing.LLCConfig {
		f, err := policy.ByName(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		return sharing.LLCConfig{Size: size, Ways: 16, NewPolicy: f}
	}
	// replay runs base over the first n accesses at tier and, with
	// protected, base's oracle lane and, with scored, an F7 lane of an
	// address and a PC predictor over LRU; fresh replays each lane alone
	// on a drained pool.
	replay := func(tier sharing.Tier, n int, base sharing.LLCConfig, protected, scored, fresh bool) recycleStep {
		stream := full[:n]
		if fresh {
			mem.Drain()
		}
		lanes := []sharing.LLCConfig{base}
		var prot *core.Protector
		if protected {
			cols := oracle.Columns(stream, 0, []int64{oracle.Horizon(base.Size, oracle.HorizonFactor)})
			defer mem.Release(cols[0])
			prot = core.NewProtectorOpts(base.NewPolicy(), core.Options{Strength: core.Full})
			lanes = append(lanes, sharing.LLCConfig{Size: base.Size, Ways: base.Ways,
				NewPolicy: func() cache.Policy { return core.NewLane(prot, oracle.Hints(cols[0])) }})
		}
		var finish func() []predictor.PredStats
		if scored {
			addr, err := predictor.NewAddress(predictor.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			pc, err := predictor.NewPC(predictor.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			var cfg sharing.LLCConfig
			cfg, finish, err = predictor.ScoredLane(4*cache.MB, 16, lane("lru", 0).NewPolicy, []predictor.Predictor{addr, pc})
			if err != nil {
				t.Fatal(err)
			}
			lanes = append(lanes, cfg)
		}
		opt := sharing.Options{Tier: tier}
		var results []*sharing.Result
		var err error
		if fresh {
			for i := range lanes {
				mem.Drain()
				r, err := sharing.ReplayMulti(stream, lanes[i:i+1], opt)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, r...)
			}
		} else if results, err = sharing.ReplayMulti(stream, lanes, opt); err != nil {
			t.Fatal(err)
		}
		st := recycleStep{results: results}
		if prot != nil {
			st.stats = append(st.stats, prot.Stats())
		}
		if finish != nil {
			st.scores = finish()
		}
		return st
	}
	short := len(full) / 20
	sequence := func(fresh bool) (steps []recycleStep) {
		for _, tier := range []sharing.Tier{sharing.Tracked, sharing.SharedHitsOnly, sharing.CountsOnly} {
			for _, s := range []struct {
				n         int
				base      sharing.LLCConfig
				protected bool
				scored    bool
			}{
				{n: len(full), base: lane("drrip", 8*cache.MB), protected: true},
				{n: len(full), base: lane("srrip", 4*cache.MB), protected: true},
				{n: len(full), base: lane("lru", 4*cache.MB)},
				{n: len(full), base: lane("opt", 4*cache.MB)},
				{n: len(full), base: lane("ship", 4*cache.MB)},
				{n: len(full), base: lane("ship-s", 4*cache.MB)},
				{n: len(full), base: lane("lru", 4*cache.MB), protected: true, scored: true},
				{n: short, base: lane("lru", 4*cache.MB), protected: true, scored: true},
				{n: short, base: lane("drrip", 4*cache.MB), protected: true},
			} {
				steps = append(steps, replay(tier, s.n, s.base, s.protected, s.scored, fresh))
			}
		}
		return steps
	}
	want := sequence(true)
	for round := range 2 {
		for i, got := range sequence(false) {
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("round %d, step %d: recycled lanes\n%+v\nfresh lanes\n%+v", round, i, got, want[i])
			}
		}
	}
}

package oracle

import (
	"reflect"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
	"sharellc/internal/sharing"
	"sharellc/internal/trace"
	"testing/quick"
)

const (
	size = 16 * trace.BlockSize // 4 sets x 4 ways
	ways = 4
)

func lruFactory() cache.Policy { return policy.NewLRUPolicy() }

// fused replays bases and cells as one oracle study.
func fused(stream []cache.AccessInfo, bases []sharing.LLCConfig, cells []Cell, ropt sharing.Options) ([]*Result, error) {
	lanes, collect, err := Lanes(stream, 0, bases, cells)
	if err != nil {
		return nil, err
	}
	results, err := sharing.ReplayMulti(stream, lanes, ropt)
	if err != nil {
		return nil, err
	}
	return collect(results), nil
}

// solo is one cell's study replayed alone: its base and its protected lane.
func solo(stream []cache.AccessInfo, base sharing.LLCConfig, c Cell) (*Result, error) {
	c.Base = 0
	res, err := fused(stream, []sharing.LLCConfig{base}, []Cell{c}, sharing.Options{})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// study is the single-policy oracle study at the default horizon.
func study(stream []cache.AccessInfo, newPolicy func() cache.Policy, opts core.Options) (*Result, error) {
	return solo(stream, sharing.LLCConfig{Size: size, Ways: ways, NewPolicy: newPolicy},
		Cell{Opts: opts, Factor: HorizonFactor})
}

// sharedVictimStream builds a stream where a shared block is repeatedly
// evicted by LRU just before its cross-core reuse, so the oracle has real
// headroom: protecting the shared block converts misses to hits.
func sharedVictimStream() []cache.AccessInfo {
	var pairs [][2]uint64 // (core, block)
	// Blocks 0,4,8,12,16 map to set 0 of the 4-set cache.
	for round := 0; round < 200; round++ {
		pairs = append(pairs,
			[2]uint64{0, 0}, // shared block filled by core 0
			[2]uint64{1, 0}, // shared: core 1 hits it
			// Private single-use churn that pushes block 0 to LRU.
			[2]uint64{2, 4}, [2]uint64{2, 8}, [2]uint64{2, 12}, [2]uint64{2, 16},
			// Cross-core reuse of block 0: a miss under LRU, a hit if
			// protected.
			[2]uint64{3, 0},
		)
	}
	stream := make([]cache.AccessInfo, len(pairs))
	for i, p := range pairs {
		stream[i] = cache.AccessInfo{Core: uint8(p[0]), Block: p[1], Index: int32(i)}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

func TestOracleReducesMissesWhenSharingIsEvicted(t *testing.T) {
	res, err := study(sharedVictimStream(), lruFactory, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	if res.Oracle.Misses >= res.Base.Misses {
		t.Errorf("oracle misses %d >= base misses %d", res.Oracle.Misses, res.Base.Misses)
	}
	if red := res.MissReduction(); red <= 0.05 {
		t.Errorf("miss reduction = %.3f, want substantial (> 0.05)", red)
	}
	if res.Stats.ProtectedFills == 0 {
		t.Error("oracle never protected a fill")
	}
}

func TestOracleNoOpOnPrivateWorkload(t *testing.T) {
	// Single core: nothing is ever shared, so the oracle changes nothing.
	rnd := rng.New(4)
	stream := make([]cache.AccessInfo, 3000)
	for i := range stream {
		stream[i] = cache.AccessInfo{Core: 0, Block: rnd.Uint64n(64), Index: int32(i)}
	}
	res, err := study(stream, lruFactory, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	if res.Base.Misses != res.Oracle.Misses {
		t.Errorf("oracle changed misses on a private workload: %d vs %d", res.Base.Misses, res.Oracle.Misses)
	}
	if res.MissReduction() != 0 {
		t.Errorf("MissReduction = %v, want 0", res.MissReduction())
	}
	if res.Stats.ProtectedFills != 0 {
		t.Errorf("protected %d fills with no sharing", res.Stats.ProtectedFills)
	}
}

func TestOracleWorksWithEveryCataloguePolicy(t *testing.T) {
	stream := sharedVictimStream()
	for _, name := range policy.Names(5) {
		if name == "opt" {
			continue // OPT already sees the future; wrapping it is out of scope
		}
		f, err := policy.ByName(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			res, err := study(stream, func() cache.Policy { return f() }, core.Options{Strength: core.Full})
			if err != nil {
				t.Fatal(err)
			}
			// The oracle must never be catastrophically worse: allow a
			// small regression margin for policies whose dynamics the
			// protection perturbs.
			if float64(res.Oracle.Misses) > 1.1*float64(res.Base.Misses) {
				t.Errorf("%s: oracle misses %d far exceed base %d", name, res.Oracle.Misses, res.Base.Misses)
			}
		})
	}
}

func TestMissReductionEmptyBase(t *testing.T) {
	r := &Result{Base: &sharing.Result{}, Oracle: &sharing.Result{}}
	if r.MissReduction() != 0 {
		t.Error("empty base produced non-zero reduction")
	}
}

func TestOracleDeterministic(t *testing.T) {
	stream := sharedVictimStream()
	a, err := study(stream, lruFactory, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	b, err := study(stream, lruFactory, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	if a.Oracle.Misses != b.Oracle.Misses || a.Base.Misses != b.Base.Misses {
		t.Error("oracle study not deterministic")
	}
}

// TestOracleFusedMatchesSolo holds fused studies to their cells replayed
// alone: every cell of one replay — every catalogue policy over its own
// base, LRU at 8, 16 and 32 ways, two strengths over one base, two
// horizons over one base — must reproduce its solo study's passes and
// protector counters exactly.
func TestOracleFusedMatchesSolo(t *testing.T) {
	victims, wide := sharedVictimStream(), laneStream(20000, 3000, 5)
	full, insert := core.Options{Strength: core.Full}, core.Options{Strength: core.InsertOnly}
	lru := func(size, ways int) sharing.LLCConfig {
		return sharing.LLCConfig{Size: size, Ways: ways, NewPolicy: lruFactory}
	}
	var catalogue []sharing.LLCConfig
	var perBase []Cell
	for _, name := range policy.Names(5) {
		f, err := policy.ByName(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		perBase = append(perBase, Cell{Base: len(catalogue), Opts: full, Factor: HorizonFactor})
		catalogue = append(catalogue, sharing.LLCConfig{Size: size, Ways: ways, NewPolicy: f})
	}
	for _, sh := range []struct {
		name   string
		stream []cache.AccessInfo
		bases  []sharing.LLCConfig
		cells  []Cell
	}{
		{"catalogue", victims, catalogue, perBase},
		{"8/16/32 ways", wide, []sharing.LLCConfig{lru(laneSize, 8), lru(laneSize, 16), lru(laneSize, 32)},
			[]Cell{{Base: 0, Opts: full, Factor: HorizonFactor}, {Base: 1, Opts: full, Factor: HorizonFactor}, {Base: 2, Opts: full, Factor: HorizonFactor}}},
		{"two strengths", wide, []sharing.LLCConfig{lru(laneSize, 16)},
			[]Cell{{Opts: insert, Factor: HorizonFactor}, {Opts: full, Factor: HorizonFactor}}},
		{"two horizons", victims, []sharing.LLCConfig{lru(size, ways)},
			[]Cell{{Opts: full, Factor: 1}, {Opts: full, Factor: HorizonFactor}}},
	} {
		got, err := fused(sh.stream, sh.bases, sh.cells, sharing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range sh.cells {
			want, err := solo(sh.stream, sh.bases[c.Base], c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got[i]) {
				t.Errorf("%s: cell %d (%s) differs from its solo study", sh.name, i, want.Base.Policy)
			}
		}
	}
}

func TestRunOptsVariantsAllSane(t *testing.T) {
	stream := sharedVictimStream()
	for _, opts := range []core.Options{
		{Strength: core.InsertOnly},
		{Strength: core.Full},
		{Strength: core.Full, ClearOnFulfil: true},
		{Strength: core.Full, SkipBudget: -1},
	} {
		res, err := study(stream, lruFactory, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if res.Oracle.Hits+res.Oracle.Misses != res.Oracle.Accesses {
			t.Errorf("opts %+v: inconsistent counts", opts)
		}
	}
}

func TestSharedHints(t *testing.T) {
	stream := []cache.AccessInfo{
		{Core: 0, Block: 1, Index: 0}, // shared within horizon (core 1 at idx 2)
		{Core: 0, Block: 2, Index: 1}, // only same-core reuse
		{Core: 1, Block: 1, Index: 2}, // no future cross-core touch
		{Core: 0, Block: 2, Index: 3},
		{Core: 1, Block: 3, Index: 4}, // cross-core but beyond horizon
		{Core: 0, Block: 3, Index: 5},
	}
	hints := SharedHints(stream, 3)
	want := []bool{true, false, false, false, false, false}
	// Block 3: idx 4 core 1, idx 5 core 0: distance 1 <= 3 → shared!
	want[4] = true
	for i, w := range want {
		if hints[i] != w {
			t.Errorf("hints[%d] = %v, want %v", i, hints[i], w)
		}
	}
}

// Property: a single-core stream never produces a shared hint, and hints
// are monotone in the horizon (a larger window can only add hints).
func TestSharedHintsProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 200 + rnd.Intn(400)
		single := make([]cache.AccessInfo, n)
		multi := make([]cache.AccessInfo, n)
		for i := 0; i < n; i++ {
			b := rnd.Uint64n(32)
			single[i] = cache.AccessInfo{Core: 0, Block: b, Index: int32(i)}
			multi[i] = cache.AccessInfo{Core: uint8(rnd.Intn(4)), Block: b, Index: int32(i)}
		}
		for _, h := range SharedHints(single, int64(n)) {
			if h {
				return false
			}
		}
		small := SharedHints(multi, 10)
		large := SharedHints(multi, int64(n))
		for i := range small {
			if small[i] && !large[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSharedHintsHorizonCutoff(t *testing.T) {
	stream := []cache.AccessInfo{
		{Core: 0, Block: 7, Index: 0},
		{Core: 0, Block: 8, Index: 1},
		{Core: 0, Block: 9, Index: 2},
		{Core: 1, Block: 7, Index: 3},
	}
	if hints := SharedHints(stream, 2); hints[0] {
		t.Error("cross-core touch beyond horizon marked shared")
	}
	if hints := SharedHints(stream, 3); !hints[0] {
		t.Error("cross-core touch within horizon not marked")
	}
}

// TestLanesRefusesBadFactor: a cell's horizon factor is at least 1.
func TestLanesRefusesBadFactor(t *testing.T) {
	bases := []sharing.LLCConfig{{Size: size, Ways: ways, NewPolicy: lruFactory}}
	for _, f := range []int{0, -1} {
		if _, _, err := Lanes(sharedVictimStream(), 0, bases, []Cell{{Factor: f}}); err == nil {
			t.Errorf("Lanes accepted horizon factor %d", f)
		}
	}
}

// TestLanesShareHintColumns: cells at one horizon read one hint column,
// whatever their ways, and a cell at another horizon reads its own.
func TestLanesShareHintColumns(t *testing.T) {
	var bases []sharing.LLCConfig
	for _, w := range []int{8, 16, 32} {
		bases = append(bases, sharing.LLCConfig{Size: laneSize, Ways: w, NewPolicy: lruFactory})
	}
	cells := []Cell{{Base: 0, Factor: HorizonFactor}, {Base: 1, Factor: HorizonFactor}, {Base: 2, Factor: HorizonFactor}, {Base: 1, Factor: 1}}
	lanes, _, err := Lanes(laneStream(2000, 300, 3), 0, bases, cells)
	if err != nil {
		t.Fatal(err)
	}
	col := func(i int) *bool { return &lanes[len(bases)+i].NewPolicy().(*hinted).hints[0] }
	if col(0) != col(1) || col(0) != col(2) || col(0) == col(3) {
		t.Error("cells at one horizon do not share one hint column, or cells at two horizons do")
	}
}

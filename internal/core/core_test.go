package core

import (
	"testing"
	"testing/quick"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// testCache is a 1-set, 4-way cache managed by a Protector. It mirrors the
// cache's contents from the Access results, so a test can ask whether a
// block is resident without touching replacement state.
type testCache struct {
	*cache.SetAssoc
	resident map[uint64]bool
}

func (c *testCache) Access(a cache.AccessInfo) cache.Result {
	r := c.SetAssoc.Access(a)
	if r.Evicted {
		delete(c.resident, r.Victim)
	}
	c.resident[a.Block] = true
	return r
}

// plainLRU is cache.LRU without its Demote method: a Protector over it
// never demotes unhinted fills, so the directed tests see the protection
// mechanics alone, in plain LRU order.
type plainLRU struct{ cache.Policy }

// protCache builds a testCache whose Protector wraps base under opts.
func protCache(t *testing.T, base cache.Policy, opts Options) (*testCache, *Protector) {
	t.Helper()
	p := NewProtectorOpts(base, opts)
	c, err := cache.NewSetAssoc(4*trace.BlockSize, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	return &testCache{SetAssoc: c, resident: map[uint64]bool{}}, p
}

// lruCache is protCache over cache.LRU, which demotes.
func lruCache(t *testing.T, opts Options) (*testCache, *Protector) {
	t.Helper()
	return protCache(t, &cache.LRU{}, opts)
}

// plainCache is protCache over plainLRU, which does not.
func plainCache(t *testing.T, opts Options) (*testCache, *Protector) {
	t.Helper()
	return protCache(t, plainLRU{&cache.LRU{}}, opts)
}

func TestStrengthString(t *testing.T) {
	if InsertOnly.String() != "insert-only" || Full.String() != "full" {
		t.Error("Strength names wrong")
	}
	if Strength(9).String() == "" {
		t.Error("unknown strength stringified empty")
	}
}

func TestNameSuffix(t *testing.T) {
	p := NewProtectorOpts(&cache.LRU{}, Options{Strength: Full})
	if p.Name() != "lru+sa" {
		t.Errorf("Name = %q, want lru+sa", p.Name())
	}
}

func TestNilBasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewProtectorOpts(nil) did not panic")
		}
	}()
	NewProtectorOpts(nil, Options{Strength: Full})
}

// TestNoHintsBehavesLikeBase is the no-harm guarantee for workloads with
// zero sharing: without any hinted fill the hint-rate gate keeps demotion
// off and the wrapper must be bit-identical to the bare base policy.
func TestNoHintsBehavesLikeBase(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		stream := make([]cache.AccessInfo, 2000)
		for i := range stream {
			stream[i] = cache.AccessInfo{Block: rnd.Uint64n(64)}
		}
		run := func(p cache.Policy) uint64 {
			c, err := cache.NewSetAssoc(16*trace.BlockSize, 4, p)
			if err != nil {
				t.Fatal(err)
			}
			var misses uint64
			for _, a := range stream {
				if !c.Access(a).Hit {
					misses++
				}
			}
			return misses
		}
		return run(&cache.LRU{}) == run(NewProtectorOpts(&cache.LRU{}, Options{Strength: Full}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDemotionMakesUnhintedFillsVictimsFirst(t *testing.T) {
	c, p := lruCache(t, Options{Strength: Full})
	// One hinted fill activates the gate; subsequent unhinted fills are
	// demoted to the LRU position in fill order.
	c.Access(cache.AccessInfo{Block: 0, PredictedShared: true})
	c.Access(cache.AccessInfo{Block: 1})
	c.Access(cache.AccessInfo{Block: 2})
	c.Access(cache.AccessInfo{Block: 3})
	// Demoted order: 3 is the deepest (last demotion goes below all).
	r := c.Access(cache.AccessInfo{Block: 4})
	if r.Victim != 3 {
		t.Errorf("victim = block %d, want 3 (most recently demoted)", r.Victim)
	}
	if !c.resident[0] {
		t.Error("hinted block evicted while demoted candidates existed")
	}
	if st := p.Stats(); st.Demotions != 4 { // blocks 1,2,3 and the fill of 4
		t.Errorf("demotions = %d, want 4", st.Demotions)
	}
}

func TestHintRateGateBlocksDemotionWithoutSharing(t *testing.T) {
	c, p := lruCache(t, Options{Strength: Full})
	// No hints at all: fills must not be demoted, LRU order preserved.
	for b := uint64(0); b < 4; b++ {
		c.Access(cache.AccessInfo{Block: b})
	}
	r := c.Access(cache.AccessInfo{Block: 4})
	if r.Victim != 0 {
		t.Errorf("victim = block %d, want 0 (plain LRU order)", r.Victim)
	}
	if st := p.Stats(); st.Demotions != 0 {
		t.Errorf("demotions = %d with zero hints", st.Demotions)
	}
}

func TestVictimExclusionSkipsProtected(t *testing.T) {
	c, p := plainCache(t, Options{Strength: Full})
	c.Access(cache.AccessInfo{Block: 0, PredictedShared: true, Core: 0})
	c.Access(cache.AccessInfo{Block: 1})
	c.Access(cache.AccessInfo{Block: 2})
	c.Access(cache.AccessInfo{Block: 3})
	// Block 0 is the LRU head candidate only via base order; it is
	// protected, so eviction must take block 1 (next in LRU order)...
	// except promotion made 0 MRU at fill; with fills 1,2,3 after it the
	// base LRU order is 0,1,2,3 → 0 protected → victim 1, one exclusion.
	r := c.Access(cache.AccessInfo{Block: 4})
	if r.Victim != 1 {
		t.Errorf("victim = block %d, want 1", r.Victim)
	}
	if st := p.Stats(); st.Exclusions != 1 {
		t.Errorf("exclusions = %d, want 1", st.Exclusions)
	}
	if !c.resident[0] {
		t.Error("protected block evicted")
	}
}

func TestSkipBudgetExpires(t *testing.T) {
	c, p := plainCache(t, Options{Strength: Full, SkipBudget: 2})
	c.Access(cache.AccessInfo{Block: 0, PredictedShared: true, Core: 0})
	c.Access(cache.AccessInfo{Block: 1})
	c.Access(cache.AccessInfo{Block: 2})
	c.Access(cache.AccessInfo{Block: 3})
	// Each conflicting fill charges block 0 once (it is the base LRU
	// victim). cache.LRU has no VictimKeys, so the wrapper uses the
	// fallback path: once the budget hits zero mid-selection, the
	// expired block itself is evicted.
	c.Access(cache.AccessInfo{Block: 4}) // charge 1 (skips left 1)
	if !c.resident[0] {
		t.Fatal("block 0 evicted before budget exhausted")
	}
	r := c.Access(cache.AccessInfo{Block: 5}) // charge 2 → expiry → evicted
	if p.Stats().Expired != 1 {
		t.Fatalf("expired = %d, want 1", p.Stats().Expired)
	}
	if r.Victim != 0 {
		t.Errorf("victim = block %d, want 0 on expiry", r.Victim)
	}
	if c.resident[0] {
		t.Error("block 0 resident after budget exhaustion")
	}
}

func TestFulfilmentRefreshesBudget(t *testing.T) {
	c, p := plainCache(t, Options{Strength: Full, SkipBudget: 2})
	c.Access(cache.AccessInfo{Block: 0, PredictedShared: true, Core: 0})
	c.Access(cache.AccessInfo{Block: 1})
	c.Access(cache.AccessInfo{Block: 2})
	c.Access(cache.AccessInfo{Block: 3})
	c.Access(cache.AccessInfo{Block: 4}) // charge 1
	// Cross-core hit refreshes the budget (and promotes to MRU).
	c.Access(cache.AccessInfo{Block: 0, Core: 1})
	if p.Stats().Fulfilled != 1 {
		t.Fatalf("fulfilled = %d, want 1", p.Stats().Fulfilled)
	}
	// Block 0 is MRU now; push it back to LRU head with 3 more fills,
	// each charging at most once when it heads the rank.
	c.Access(cache.AccessInfo{Block: 5})
	c.Access(cache.AccessInfo{Block: 6})
	c.Access(cache.AccessInfo{Block: 7})
	if !c.resident[0] {
		t.Error("refreshed block evicted within renewed budget")
	}
}

func TestClearOnFulfil(t *testing.T) {
	c, p := plainCache(t, Options{Strength: Full, ClearOnFulfil: true})
	c.Access(cache.AccessInfo{Block: 0, PredictedShared: true, Core: 0})
	c.Access(cache.AccessInfo{Block: 0, Core: 1}) // hit fulfils, clears
	if p.protected(0, 0) {
		t.Error("protection survived fulfilment with ClearOnFulfil")
	}
	if p.Stats().Fulfilled != 1 {
		t.Errorf("fulfilled = %d", p.Stats().Fulfilled)
	}
}

func TestSameCoreHitDoesNotFulfil(t *testing.T) {
	_, p := plainCache(t, Options{Strength: Full})
	p.Fill(0, 0, &cache.AccessInfo{Block: 9, PredictedShared: true, Core: 2})
	p.Hit(0, 0, &cache.AccessInfo{Block: 9, Core: 2})
	if p.Stats().Fulfilled != 0 {
		t.Error("same-core hit counted as fulfilment")
	}
	if !p.protected(0, 0) {
		t.Error("protection lost on same-core hit")
	}
}

func TestLockoutEvictsBaseVictim(t *testing.T) {
	c, p := lruCache(t, Options{Strength: Full})
	for b := uint64(0); b < 4; b++ {
		c.Access(cache.AccessInfo{Block: b, PredictedShared: true})
	}
	// All 4 ways protected → lockout: base (LRU) victim is block 0.
	r := c.Access(cache.AccessInfo{Block: 4})
	if r.Victim != 0 {
		t.Errorf("lockout victim = block %d, want 0", r.Victim)
	}
	if st := p.Stats(); st.Lockouts != 1 {
		t.Errorf("lockouts = %d, want 1", st.Lockouts)
	}
}

func TestInsertOnlyNeverExcludes(t *testing.T) {
	c, p := plainCache(t, Options{Strength: InsertOnly})
	c.Access(cache.AccessInfo{Block: 0, PredictedShared: true})
	c.Access(cache.AccessInfo{Block: 1})
	c.Access(cache.AccessInfo{Block: 2})
	c.Access(cache.AccessInfo{Block: 3})
	// For LRU, promotion at fill is a no-op and insert-only never skips:
	// plain LRU order evicts block 0 first.
	r := c.Access(cache.AccessInfo{Block: 4})
	if r.Victim != 0 {
		t.Errorf("victim = block %d, want 0", r.Victim)
	}
	if st := p.Stats(); st.Exclusions != 0 || st.Lockouts != 0 {
		t.Errorf("insert-only recorded exclusions/lockouts: %+v", st)
	}
}

// fixedVictim is a minimal non-ranking policy for the fallback path.
type fixedVictim struct{ ways int }

func (f *fixedVictim) Name() string                      { return "fixed" }
func (f *fixedVictim) Attach(_, ways int)                { f.ways = ways }
func (f *fixedVictim) Hit(int, int, *cache.AccessInfo)   {}
func (f *fixedVictim) Fill(int, int, *cache.AccessInfo)  {}
func (f *fixedVictim) Victim(int, *cache.AccessInfo) int { return 0 }

func TestFallbackWithoutRanking(t *testing.T) {
	p := NewProtectorOpts(&fixedVictim{}, Options{Strength: Full})
	c, err := cache.NewSetAssoc(4*trace.BlockSize, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(cache.AccessInfo{Block: 0, PredictedShared: true})
	c.Access(cache.AccessInfo{Block: 1})
	c.Access(cache.AccessInfo{Block: 2})
	c.Access(cache.AccessInfo{Block: 3})
	// fixedVictim always evicts way 0 = block 0, which is protected; the
	// fallback must redirect to the first unprotected way (way 1).
	r := c.Access(cache.AccessInfo{Block: 4})
	if r.Victim != 1 {
		t.Errorf("fallback victim = block %d, want 1", r.Victim)
	}
	if st := p.Stats(); st.Exclusions != 1 {
		t.Errorf("exclusions = %d, want 1", st.Exclusions)
	}
}

// evictCounter records ObserveEvict calls.
type evictCounter struct {
	cache.LRU
	evicts int
}

func (e *evictCounter) VictimKeys(set int, dst []int64) {
	for w := range dst {
		dst[w] = -int64(e.Stamp(set, w))
	}
}

func (e *evictCounter) ObserveEvict(int, int) { e.evicts++ }

func TestEvictObserverNotified(t *testing.T) {
	base := &evictCounter{}
	p := NewProtectorOpts(base, Options{Strength: Full})
	c, err := cache.NewSetAssoc(4*trace.BlockSize, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(cache.AccessInfo{Block: 0, PredictedShared: true})
	for b := uint64(1); b < 8; b++ {
		c.Access(cache.AccessInfo{Block: b})
	}
	// 4 fills beyond capacity → 4 evictions routed through the keyed
	// path; each must have notified the base.
	if base.evicts != 4 {
		t.Errorf("ObserveEvict fired %d times, want 4", base.evicts)
	}
}

func TestProtectionClearedOnRefill(t *testing.T) {
	c, p := plainCache(t, Options{Strength: Full})
	c.Access(cache.AccessInfo{Block: 0, PredictedShared: true})
	way := -1
	for w := 0; w < 4; w++ {
		if p.protected(0, w) {
			way = w
		}
	}
	if way < 0 {
		t.Fatal("no protected way after hinted fill")
	}
	p.Fill(0, way, &cache.AccessInfo{Block: 9}) // an unhinted refill of the way
	if p.protected(0, way) {
		t.Error("protection survived an unhinted refill of the way")
	}
}

func TestGateDecays(t *testing.T) {
	p := NewProtectorOpts(&cache.LRU{}, Options{Strength: Full})
	p.Attach(1, 4)
	// One hinted fill activates the gate...
	p.Fill(0, 0, &cache.AccessInfo{PredictedShared: true})
	if !p.demoteActive() {
		t.Fatal("gate inactive after hinted fill")
	}
	// ...but a long run of unhinted fills deactivates it again.
	for i := 0; i < 2*gateWindow; i++ {
		p.Fill(0, 1, &cache.AccessInfo{})
	}
	if p.demoteActive() {
		t.Error("gate still active after hint-free window")
	}
}

func TestProtectorDelegatesHits(t *testing.T) {
	c, _ := lruCache(t, Options{Strength: Full})
	c.Access(cache.AccessInfo{Block: 0})
	c.Access(cache.AccessInfo{Block: 1})
	c.Access(cache.AccessInfo{Block: 0}) // hit promotes 0 over 1
	c.Access(cache.AccessInfo{Block: 2})
	c.Access(cache.AccessInfo{Block: 3})
	if r := c.Access(cache.AccessInfo{Block: 4}); r.Victim != 1 {
		t.Errorf("victim = %d, want 1 (hit promotion not delegated)", r.Victim)
	}
}

package core

// Robustness suite: the Protector wrapped around every
// catalogue policy, driven with random streams and random hint patterns,
// under every option combination. The assertions are the wrapper's
// structural invariants — the cache itself panics on malformed victims,
// so survival plus counter consistency is the contract.

import (
	"testing"
	"testing/quick"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

func TestProtectorOverEveryPolicyFuzz(t *testing.T) {
	optionSets := []Options{
		{Strength: InsertOnly},
		{Strength: Full},
		{Strength: Full, SkipBudget: 1},
		{Strength: Full, SkipBudget: -1},
		{Strength: Full, ClearOnFulfil: true},
	}
	for _, name := range policy.Names(11) {
		t.Run(name, func(t *testing.T) {
			for oi, opts := range optionSets {
				mk, err := policy.ByName(name, 11)
				if err != nil {
					t.Fatal(err)
				}
				p := NewProtectorOpts(mk(), opts)
				c, err := cache.NewSetAssoc(32*trace.BlockSize, 4, p)
				if err != nil {
					t.Fatal(err)
				}
				rnd := rng.New(uint64(oi) + 99)
				var hits, misses uint64
				for i := 0; i < 15000; i++ {
					a := cache.AccessInfo{
						Block:           rnd.Uint64n(128),
						Core:            uint8(rnd.Intn(8)),
						PC:              0x400 + rnd.Uint64n(64)*4,
						Write:           rnd.Bool(0.3),
						PredictedShared: rnd.Bool(0.25),
						NextUse:         int32(i) + int32(rnd.Intn(50)),
					}
					if c.Access(a).Hit {
						hits++
					} else {
						misses++
					}
				}
				if hits+misses != 15000 {
					t.Fatalf("opts %d: lost accesses", oi)
				}
				st := p.Stats()
				if st.Promotions > st.ProtectedFills {
					t.Errorf("opts %d: promotions %d exceed protected fills %d", oi, st.Promotions, st.ProtectedFills)
				}
				if opts.Strength == InsertOnly && (st.Exclusions != 0 || st.Lockouts != 0 || st.Expired != 0) {
					t.Errorf("opts %d: insert-only produced victim-side stats %+v", oi, st)
				}
				// Nothing invalidates LLC lines, so fills minus evictions
				// is the resident count.
				if _, _, fills, evicts := c.Stats(); fills-evicts > 32 {
					t.Errorf("opts %d: %d resident blocks exceed capacity", oi, fills-evicts)
				}
			}
		})
	}
}

// TestProtectorQuickInvariants drives random short streams through the
// Full wrapper over LRU and checks that protection never outlives the
// block: an evicted block's way must come back unprotected on refill.
func TestProtectorQuickInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		p := NewProtectorOpts(policy.NewLRUPolicy(), Options{Strength: Full})
		c, err := cache.NewSetAssoc(4*trace.BlockSize, 4, p)
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			a := cache.AccessInfo{
				Block:           rnd.Uint64n(16),
				Core:            uint8(rnd.Intn(4)),
				PredictedShared: rnd.Bool(0.5),
			}
			r := c.Access(a)
			if !r.Hit && !a.PredictedShared {
				// The way just filled with an unhinted block must not
				// be protected.
				if p.protected(r.Set, r.Way) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// besideHint is a Protector whose fill hint arrives beside the access,
// the way an oracle or predictor-driven lane hands it over.
type besideHint struct {
	*Protector
	hint bool
}

func (b *besideHint) Fill(set, way int, a *cache.AccessInfo) { b.FillHinted(set, way, a, b.hint) }

// TestFillHintedMatchesFill holds FillHinted to Fill: over every
// catalogue policy and option set, a Protector told each hint beside an
// unhinted record makes the same cache decisions and counts the same
// interventions as one reading the record's PredictedShared.
func TestFillHintedMatchesFill(t *testing.T) {
	optionSets := []Options{
		{Strength: InsertOnly},
		{Strength: Full},
		{Strength: Full, SkipBudget: 1},
		{Strength: Full, SkipBudget: -1},
		{Strength: Full, ClearOnFulfil: true},
	}
	for _, name := range policy.Names(11) {
		mk, err := policy.ByName(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		for oi, opts := range optionSets {
			onRecord := NewProtectorOpts(mk(), opts)
			beside := &besideHint{Protector: NewProtectorOpts(mk(), opts)}
			c1, err := cache.NewSetAssoc(32*trace.BlockSize, 4, onRecord)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := cache.NewSetAssoc(32*trace.BlockSize, 4, beside)
			if err != nil {
				t.Fatal(err)
			}
			rnd := rng.New(uint64(oi) + 7)
			for i := 0; i < 8000; i++ {
				a := cache.AccessInfo{
					Block:   rnd.Uint64n(128),
					Core:    uint8(rnd.Intn(8)),
					PC:      0x400 + rnd.Uint64n(64)*4,
					NextUse: int32(i) + int32(rnd.Intn(50)),
				}
				beside.hint = rnd.Bool(0.25)
				hinted := a
				hinted.PredictedShared = beside.hint
				if r1, r2 := c1.Access(hinted), c2.Access(a); r1 != r2 {
					t.Fatalf("%s opts %d access %d: on-record %+v, beside %+v", name, oi, i, r1, r2)
				}
			}
			if s1, s2 := onRecord.Stats(), beside.Stats(); s1 != s2 {
				t.Errorf("%s opts %d: stats on-record %+v, beside %+v", name, oi, s1, s2)
			}
		}
	}
}

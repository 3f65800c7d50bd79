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
				p := &besideHint{Protector: NewProtectorOpts(mk(), opts)}
				c, err := cache.NewSetAssoc(32*trace.BlockSize, 4, p)
				if err != nil {
					t.Fatal(err)
				}
				rnd := rng.New(uint64(oi) + 99)
				var fills, evicts uint64
				for i := 0; i < 15000; i++ {
					a := cache.AccessInfo{
						Block:   rnd.Uint64n(128),
						Core:    uint8(rnd.Intn(8)),
						PC:      0x400 + rnd.Uint64n(64)*4,
						Write:   rnd.Bool(0.3),
						NextUse: int32(i) + int32(rnd.Intn(50)),
					}
					p.hint = rnd.Bool(0.25)
					if r := c.Access(a); !r.Hit {
						fills++
						if r.Evicted {
							evicts++
						}
					}
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
				if fills-evicts > 32 {
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
		p := &besideHint{Protector: NewProtectorOpts(&cache.LRU{}, Options{Strength: Full})}
		c, err := cache.NewSetAssoc(4*trace.BlockSize, 4, p)
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			a := cache.AccessInfo{
				Block: rnd.Uint64n(16),
				Core:  uint8(rnd.Intn(4)),
			}
			p.hint = rnd.Bool(0.5)
			r := c.Access(a)
			if !r.Hit && !p.hint {
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

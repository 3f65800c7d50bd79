package core

import (
	"fmt"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// refProtector is the wrapper as it was before the key scan: one record
// per way with its own protected flag, a count by scanning the records, and
// victim selection by ranking every way (a stable sort of the base's keys)
// and walking the ranking to the first unprotected entry. It is the
// reference Protector is diffed against. The embedded Protector supplies
// the options, counters and hint-rate gate, which did not change;
// everything that reads or writes protection state is overridden here.
// The fill hint arrives beside the access, in hint.
type refProtector struct {
	Protector
	ref  []refLine
	hint bool // the next fill's sharing hint
}

type refLine struct {
	protected bool
	fillCore  uint8
	skipsLeft int
}

func newRefProtector(base cache.Policy, opts Options) *refProtector {
	return &refProtector{Protector: *NewProtectorOpts(base, opts)}
}

func (p *refProtector) Attach(sets, ways int) {
	p.Protector.Attach(sets, ways)
	p.ref = make([]refLine, sets*ways)
}

func (p *refProtector) protected(set, way int) bool { return p.ref[set*p.ways+way].protected }

func (p *refProtector) Hit(set, way int, a *cache.AccessInfo) {
	p.base.Hit(set, way, a)
	ln := &p.ref[set*p.ways+way]
	if ln.protected && a.Core != ln.fillCore {
		p.stats.Fulfilled++
		if p.opts.ClearOnFulfil {
			ln.protected = false
		} else {
			ln.skipsLeft = p.opts.SkipBudget
		}
	}
}

// rankVictims is the old policy-side ranking, built from the key call:
// ways by descending key, ties by ascending way.
func rankVictims(k victimKeyer, set, ways int) []int {
	keys := make([]int64, ways)
	k.VictimKeys(set, keys)
	rank := make([]int, ways)
	for i := range rank {
		rank[i] = i
	}
	slices.SortStableFunc(rank, func(a, b int) int {
		if keys[a] != keys[b] {
			if keys[a] > keys[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	return rank
}

func (p *refProtector) Victim(set int, a *cache.AccessInfo) int {
	if p.opts.Strength < Full {
		return p.base.Victim(set, a)
	}
	base := set * p.ways
	nProtected := 0
	for w := 0; w < p.ways; w++ {
		if p.ref[base+w].protected {
			nProtected++
		}
	}
	if nProtected == 0 {
		return p.base.Victim(set, a)
	}
	if nProtected == p.ways {
		p.stats.Lockouts++
		for w := 0; w < p.ways; w++ {
			p.refCharge(&p.ref[base+w])
		}
		return p.base.Victim(set, a)
	}
	if k, ok := p.base.(victimKeyer); ok {
		rank := rankVictims(k, set, p.ways)
		for _, w := range rank {
			if p.ref[base+w].protected {
				continue
			}
			if w != rank[0] {
				p.stats.Exclusions++
				for _, s := range rank {
					if s == w {
						break
					}
					p.refCharge(&p.ref[base+s])
				}
			}
			p.notifyEvict(set, w)
			return w
		}
	}
	v := p.base.Victim(set, a)
	if !p.ref[base+v].protected {
		return v
	}
	p.refCharge(&p.ref[base+v])
	for w := 0; w < p.ways; w++ {
		if !p.ref[base+w].protected {
			p.stats.Exclusions++
			return w
		}
	}
	return v
}

func (p *refProtector) refCharge(ln *refLine) {
	if !ln.protected || p.opts.SkipBudget < 0 {
		return
	}
	ln.skipsLeft--
	if ln.skipsLeft <= 0 {
		ln.protected = false
		p.stats.Expired++
	}
}

func (p *refProtector) Fill(set, way int, a *cache.AccessInfo) {
	p.base.Fill(set, way, a)
	p.fillsSeen++
	if p.hint {
		p.fillsHinted++
	}
	if p.fillsSeen >= gateWindow {
		p.fillsSeen /= 2
		p.fillsHinted /= 2
	}
	ln := &p.ref[set*p.ways+way]
	*ln = refLine{}
	if !p.hint {
		if p.demoteActive() {
			if d, ok := p.base.(demoter); ok {
				d.Demote(set, way)
				p.stats.Demotions++
			}
		}
		return
	}
	p.stats.ProtectedFills++
	if pr, ok := p.base.(promoter); ok {
		pr.Promote(set, way)
	} else {
		p.base.Hit(set, way, a)
	}
	p.stats.Promotions++
	if p.opts.Strength >= Full {
		*ln = refLine{protected: true, fillCore: a.Core, skipsLeft: p.opts.SkipBudget}
	}
}

// hintStream yields accesses and their fill hints, the hint rate moving
// through phases — none hinted, a quarter, all — so sets pass through the
// none-protected, mixed and all-protected (lockout) states, with enough
// conflict misses for skip budgets to run out.
func hintStream(rnd *rng.Source, i, n, blocks int) (cache.AccessInfo, bool) {
	rate := [...]float64{0.25, 1, 0, 0.25, 0.6}[i*5/n]
	return cache.AccessInfo{
		Block:   rnd.Uint64n(uint64(blocks)),
		Core:    uint8(rnd.Intn(4)),
		PC:      0x400 + rnd.Uint64n(64)*4,
		NextUse: int32(i) + int32(rnd.Intn(200)),
	}, rnd.Bool(rate)
}

// TestVictimScanMatchesRankAndWalk drives Protector and refProtector, each
// over its own instance of the same base, with one hinted stream and
// demands the same outcome for every access, the same Stats and the same
// protected ways throughout.
func TestVictimScanMatchesRankAndWalk(t *testing.T) {
	variants := []Options{
		{},
		{ClearOnFulfil: true},
		{SkipBudget: 1},
		{SkipBudget: -1},
	}
	var total Stats
	for _, ways := range []int{4, 16, 128} {
		sets, n := 16, 12000
		if ways == 128 {
			sets = 4 // same line count as 16 sets of 32: the stream still wraps the cache many times
		}
		if testing.Short() {
			n /= 3
		}
		for _, name := range policy.Names(21) {
			if name == "plru" && ways > 64 {
				continue // PLRU stops at 64 ways
			}
			for _, strength := range []Strength{Full, InsertOnly} {
				for vi, opts := range variants {
					opts.Strength = strength
					mk, err := policy.ByName(name, 21)
					if err != nil {
						t.Fatal(err)
					}
					got, want := &besideHint{Protector: NewProtectorOpts(mk(), opts)}, newRefProtector(mk(), opts)
					gc, err := cache.NewSetAssoc(sets*ways*trace.BlockSize, ways, got)
					if err != nil {
						t.Fatal(err)
					}
					wc, err := cache.NewSetAssoc(sets*ways*trace.BlockSize, ways, want)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s/%d ways/%v/variant %d", name, ways, strength, vi)
					rnd := rng.New(uint64(ways)*31 + uint64(vi))
					for i := 0; i < n; i++ {
						a, hint := hintStream(rnd, i, n, 3*sets*ways)
						got.hint, want.hint = hint, hint
						if g, w := gc.Access(a), wc.Access(a); g != w {
							t.Fatalf("%s: access %d: got %+v, reference %+v", where, i, g, w)
						}
						if i%64 != 0 && i != n-1 {
							continue
						}
						if got.Stats() != want.Stats() {
							t.Fatalf("%s: access %d: stats %+v, reference %+v", where, i, got.Stats(), want.Stats())
						}
						for set := 0; set < sets; set++ {
							for w := 0; w < ways; w++ {
								if got.protected(set, w) != want.protected(set, w) {
									t.Fatalf("%s: access %d: set %d way %d protected=%v, reference %v",
										where, i, set, w, got.protected(set, w), want.protected(set, w))
								}
							}
						}
					}
					if strength == Full {
						st := want.Stats()
						total.Exclusions += st.Exclusions
						total.Expired += st.Expired
						total.Lockouts += st.Lockouts
						total.Fulfilled += st.Fulfilled
					}
				}
			}
		}
	}
	if total.Exclusions == 0 || total.Expired == 0 || total.Lockouts == 0 || total.Fulfilled == 0 {
		t.Errorf("streams never reached exclusion, expiry, lockout and fulfilment: %+v", total)
	}
}

// quarterProtected returns a Protector over the named base managing a
// 64-set, 16-way cache in which four ways of every set are protected and
// have since aged under unhinted traffic, so protected lines sit anywhere
// in the base's order. The budget is unlimited: repeated Victim calls
// leave the protection state as it is.
func quarterProtected(tb testing.TB, base string) (*Protector, int) {
	tb.Helper()
	const sets, ways = 64, 16
	mk, err := policy.ByName(base, 1)
	if err != nil {
		tb.Fatal(err)
	}
	p := NewProtectorOpts(mk(), Options{Strength: Full, SkipBudget: -1})
	c, err := cache.NewSetAssoc(sets*ways*trace.BlockSize, ways, p)
	if err != nil {
		tb.Fatal(err)
	}
	rnd := rng.New(5)
	traffic := func() {
		for i := 0; i < 20*sets*ways; i++ {
			c.Access(cache.AccessInfo{
				Block: rnd.Uint64n(4 * sets * ways),
				Core:  uint8(rnd.Intn(4)),
				PC:    0x400 + rnd.Uint64n(64)*4,
			})
		}
	}
	traffic()
	order := make([]int, ways)
	for w := range order {
		order[w] = w
	}
	for set := 0; set < sets; set++ {
		for i := ways - 1; i > 0; i-- {
			j := rnd.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, w := range order[:ways/4] {
			p.FillHinted(set, w, &cache.AccessInfo{}, true)
		}
	}
	traffic()
	return p, sets
}

// TestVictimDoesNotAllocate gates the protected-miss path: key scan,
// lockout and the unkeyed fallback all run without touching the heap.
func TestVictimDoesNotAllocate(t *testing.T) {
	for _, base := range []string{"lru", "srrip", "ship", "plru", "random"} {
		p, sets := quarterProtected(t, base)
		protected := 0
		for set := 0; set < sets; set++ {
			for w := 0; w < p.ways; w++ {
				if p.protected(set, w) {
					protected++
				}
			}
		}
		if protected != sets*p.ways/4 {
			t.Fatalf("%s: %d of %d lines protected, want a quarter", base, protected, sets*p.ways)
		}
		a := &cache.AccessInfo{}
		set := 0
		if avg := testing.AllocsPerRun(1000, func() {
			p.Victim(set, a)
			set = (set + 1) % sets
		}); avg != 0 {
			t.Errorf("%s: Victim allocates %.1f objects per call", base, avg)
		}
	}
	// Lockout: every way protected.
	p := NewProtectorOpts(policy.NewLRUPolicy(), Options{Strength: Full})
	p.Attach(1, 16)
	a := &cache.AccessInfo{}
	if avg := testing.AllocsPerRun(100, func() {
		for w := 0; w < 16; w++ {
			p.FillHinted(0, w, a, true)
		}
		p.Victim(0, a)
	}); avg != 0 {
		t.Errorf("lockout: Fill+Victim allocate %.1f objects per round", avg)
	}
	if p.Stats().Lockouts == 0 {
		t.Error("lockout path not reached")
	}
}

var victimSink int

// BenchmarkProtectorVictim times victim selection in sets where about a
// quarter of the 16 ways are protected — the per-miss cost a protected
// lane adds on top of its base policy.
func BenchmarkProtectorVictim(b *testing.B) {
	for _, base := range []string{"lru", "srrip", "ship", "plru"} {
		b.Run(base, func(b *testing.B) {
			p, sets := quarterProtected(b, base)
			a := &cache.AccessInfo{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				victimSink += p.Victim(i%sets, a)
			}
		})
	}
}

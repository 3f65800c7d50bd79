// Package core implements the paper's primary contribution: a generic
// sharing-aware wrapper that can be combined with ANY base replacement
// policy. At fill time the wrapper receives a hint — from the offline
// oracle (internal/oracle) or from a realistic fill-time predictor
// (internal/predictor) — saying whether the incoming block will be shared
// during its LLC residency. Hinted blocks are protected:
//
//   - insertion promotion: the fill is promoted to the base policy's
//     highest-protection position (MRU for stack policies, RRPV 0 for the
//     RRIP family), and
//   - victim exclusion (Full strength only): victim selection takes the
//     base policy's most-preferred unprotected way, passing over protected
//     blocks while an unprotected candidate exists.
//
// Protection is deliberately *temporary*. A block predicted shared is only
// worth retaining until the predicted cross-core reuse arrives; afterwards
// the base policy's own recency/re-reference machinery is the right judge.
// Two mechanisms bound every protection:
//
//   - fulfilment: with Options.ClearOnFulfil, the first LLC hit from a
//     core other than the filler clears the protection (the sharing the
//     hint promised has happened); by default such a hit re-arms the skip
//     budget instead, since the block is actively shared;
//   - skip budget: each time victim selection passes over a protected
//     block, that block's budget decreases; at zero the protection is
//     dropped. This caps the collateral damage of mispredictions and of
//     shared-but-already-dead blocks at a few forced evictions of
//     innocent neighbours.
//
// Anti-lockout: when every way of a set is protected, the base victim is
// evicted anyway (and the set's budgets decay), so a burst of shared fills
// can never wedge a set.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// Strength selects how aggressively the wrapper acts on sharing hints.
type Strength int

const (
	// InsertOnly promotes predicted-shared fills to the base policy's
	// highest-protection insertion position but leaves victim selection
	// untouched. This is the gentler variant of the paper's oracle
	// mechanism (ablation A1).
	InsertOnly Strength = iota
	// Full adds victim exclusion: protected blocks are skipped during
	// victim selection while unprotected candidates exist.
	Full
)

// String implements fmt.Stringer.
func (s Strength) String() string {
	switch s {
	case InsertOnly:
		return "insert-only"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Strength(%d)", int(s))
	}
}

// defaultSkipBudget is how many times a protected block may be passed
// over during victim selection before its protection lapses.
const defaultSkipBudget = 8

// Options configures a Protector beyond the basic strength.
type Options struct {
	Strength Strength
	// SkipBudget bounds how often one protected block can deflect
	// eviction onto its set neighbours. Zero means DefaultSkipBudget;
	// negative means unlimited (not recommended: dead shared blocks then
	// pin their sets until lockout).
	SkipBudget int
	// ClearOnFulfil drops protection as soon as the predicted sharing
	// materializes (first cross-core hit). Off by default: a block whose
	// hint proved right is *actively shared* and keeps its protection —
	// the whole point of the oracle is to extend such blocks' residencies
	// past the base policy's eviction — with the skip budget still
	// bounding the cost once the block goes dead.
	ClearOnFulfil bool
}

// victimKeyer is implemented by base policies whose eviction preference is
// a total order over a set's ways. VictimKeys writes way w's key to dst[w]
// (len(dst) is the associativity): a higher key is a better victim and
// equal keys prefer the lower way. The call must be pure — no aging, no
// training — because the wrapper consults it instead of, not in addition
// to, the base's Victim.
type victimKeyer interface {
	VictimKeys(set int, dst []int64)
}

// demoter is implemented by base policies that can move a line to their
// lowest-priority (evict-next) position. The wrapper demotes fills that
// are predicted NOT to be shared, which is the highest-leverage form of
// sharing-awareness: single-use private traffic stops displacing shared
// working sets, exactly as LIP/BIP do for thrashing streams.
type demoter interface {
	Demote(set, way int)
}

// promoter is implemented by base policies that can move a line to their
// highest-protection position without side effects on their training
// state. When absent, the wrapper falls back to Hit, which for pure
// recency policies is exactly a promotion.
type promoter interface {
	Promote(set, way int)
}

// evictObserver is implemented by base policies that train on evictions
// (e.g. SHiP). When the wrapper overrides the base victim choice it still
// delivers the eviction notification so the base keeps learning.
type evictObserver interface {
	ObserveEvict(set, way int)
}

// Stats counts the wrapper's interventions.
type Stats struct {
	ProtectedFills uint64 // fills that arrived with a shared hint
	Promotions     uint64 // insertion promotions applied
	Demotions      uint64 // unshared fills demoted to lowest priority
	Exclusions     uint64 // victims redirected away from a protected block
	// Fulfilled counts cross-core hits on protected blocks. Each re-arms
	// the block's skip budget; only with ClearOnFulfil does it clear the
	// protection instead.
	Fulfilled uint64
	Expired   uint64 // protections cleared by skip-budget exhaustion
	Lockouts  uint64 // sets found fully protected (base victim used)
}

// line is what the wrapper remembers about a protected way. Whether a way
// is protected at all is the set's bit in Protector.prot; a line is read
// and written only while its bit is set, so stale contents are harmless.
type line struct {
	skipsLeft int32
	fillCore  uint8
}

// Protector is the sharing-aware wrapper. It implements cache.Policy by
// delegating to the wrapped base policy and intervening on hinted fills.
// Its hint-rate gate counts fills across every set, so a Protector is
// never per-set independent: a lane over it needs the stream-order
// policy pass every replay lane runs.
type Protector struct {
	base   cache.Policy
	keyer  victimKeyer // base's ordering, nil when it has none (e.g. Random)
	budget int32       // opts.SkipBudget as a line stores it
	opts   Options
	ways   int
	// prot holds one bit per way, protWords words per set: the source of
	// truth for "is this way protected".
	prot      []uint64
	protWords int
	lines     []line
	keys      []int64 // VictimKeys scratch, one per way
	stats     Stats

	// Hint-rate gate: demotion of unhinted fills is enabled only while a
	// meaningful fraction of recent fills carried a shared hint, so a
	// workload with no sharing never pays the demotion tax. Counters are
	// halved periodically to track phase changes.
	fillsSeen   uint64
	fillsHinted uint64
}

// NewProtectorOpts wraps base with sharing-aware protection under opts
// (zero fields take their defaults). The same Protector instance must
// manage exactly one cache, like any other policy.
func NewProtectorOpts(base cache.Policy, opts Options) *Protector {
	if base == nil {
		panic("core: nil base policy")
	}
	if opts.SkipBudget == 0 {
		opts.SkipBudget = defaultSkipBudget
	}
	keyer, _ := base.(victimKeyer)
	// A budget beyond int32 is indistinguishable from it: no line is
	// passed over two billion times.
	budget := int32(min(opts.SkipBudget, math.MaxInt32))
	return &Protector{base: base, keyer: keyer, budget: budget, opts: opts}
}

// Name implements cache.Policy: the base name with a "+sa" suffix (e.g.
// "lru+sa").
func (p *Protector) Name() string { return p.base.Name() + "+sa" }

// Stats returns the intervention counters.
func (p *Protector) Stats() Stats { return p.stats }

// Attach implements cache.Policy.
func (p *Protector) Attach(sets, ways int) {
	p.base.Attach(sets, ways)
	p.ways = ways
	p.protWords = (ways + 63) / 64
	p.prot = mem.Grab[uint64](sets * p.protWords)
	p.lines = mem.Grab[line](sets * ways)
	p.keys = make([]int64, ways)
}

// Release implements cache.Releaser: the protection state and then the
// base's go back to the mem pool. Stats stays readable.
func (p *Protector) Release() {
	mem.Release(p.prot)
	mem.Release(p.lines)
	p.prot, p.lines, p.keys = nil, nil, nil
	if r, ok := p.base.(cache.Releaser); ok {
		r.Release()
	}
}

// Hit implements cache.Policy: delegate, then check whether the hit
// fulfils a pending protection.
func (p *Protector) Hit(set, way int, a *cache.AccessInfo) {
	p.base.Hit(set, way, a)
	word, bit := p.protBit(set, way)
	if *word&bit == 0 {
		return
	}
	if ln := &p.lines[set*p.ways+way]; a.Core != ln.fillCore {
		p.stats.Fulfilled++
		if p.opts.ClearOnFulfil {
			*word &^= bit
		} else {
			// Refresh: active sharing re-arms the budget.
			ln.skipsLeft = p.budget
		}
	}
}

// protBit locates way's protection bit: the word of p.prot holding it and
// its mask within that word.
func (p *Protector) protBit(set, way int) (*uint64, uint64) {
	return &p.prot[set*p.protWords+way>>6], 1 << (way & 63)
}

// Victim implements cache.Policy.
//
// With a keyed base the choice is one scan: the unprotected way with the
// best (key, way). That is the first unprotected entry of the base's
// preference order, and every way that outranks it is protected by
// construction — had one been unprotected, it would have been chosen — so
// exactly the protected ways the order would have walked past are charged.
func (p *Protector) Victim(set int, a *cache.AccessInfo) int {
	if p.opts.Strength < Full {
		return p.base.Victim(set, a)
	}
	prot := p.prot[set*p.protWords : (set+1)*p.protWords]
	nProtected := 0
	for _, m := range prot {
		nProtected += bits.OnesCount64(m)
	}
	if nProtected == 0 {
		return p.base.Victim(set, a)
	}
	if nProtected == p.ways {
		// Lockout: every way protected. Evict the base victim and charge
		// every line's budget so a persistently saturated set drains.
		p.stats.Lockouts++
		for w := 0; w < p.ways; w++ {
			p.charge(set, w)
		}
		return p.base.Victim(set, a)
	}
	if p.keyer != nil {
		keys := p.keys
		p.keyer.VictimKeys(set, keys)
		v := -1
		for w, k := range keys {
			if prot[w>>6]>>(w&63)&1 == 0 && (v < 0 || k > keys[v]) {
				v = w
			}
		}
		excluded := false
		for i, m := range prot {
			for ; m != 0; m &= m - 1 {
				if w := i<<6 + bits.TrailingZeros64(m); keys[w] > keys[v] || keys[w] == keys[v] && w < v {
					p.charge(set, w)
					excluded = true
				}
			}
		}
		if excluded {
			p.stats.Exclusions++
		}
		p.notifyEvict(set, v)
		return v
	}
	// Base has no ordering (e.g. Random): take its victim, and if that is
	// protected redirect to the lowest-numbered unprotected way.
	v := p.base.Victim(set, a)
	if !p.protected(set, v) {
		return v
	}
	p.charge(set, v)
	p.stats.Exclusions++
	for i, m := range prot {
		if free := ^m; free != 0 {
			return i<<6 + bits.TrailingZeros64(free)
		}
	}
	return v // unreachable: nProtected < ways leaves an unprotected way
}

// charge decrements a protected way's skip budget, expiring the protection
// when it runs out. Unlimited budgets (negative option) never expire.
func (p *Protector) charge(set, way int) {
	if p.budget < 0 {
		return
	}
	ln := &p.lines[set*p.ways+way]
	ln.skipsLeft--
	if ln.skipsLeft <= 0 {
		word, bit := p.protBit(set, way)
		*word &^= bit
		p.stats.Expired++
	}
}

// notifyEvict forwards the eviction to bases that train on it. When the
// wrapper picks the victim from the ranking rather than via base.Victim,
// the base's Victim-side training would otherwise be skipped.
func (p *Protector) notifyEvict(set, way int) {
	if o, ok := p.base.(evictObserver); ok {
		o.ObserveEvict(set, way)
	}
}

// gateWindow is the decay period of the hint-rate gate (in fills).
const gateWindow = 1 << 15

// gateDenom sets the gate threshold: demotion activates while hinted
// fills are at least 1/gateDenom of all fills.
const gateDenom = 32

// demoteActive reports whether the hint-rate gate currently allows
// demotion of unhinted fills.
func (p *Protector) demoteActive() bool {
	return p.fillsHinted*gateDenom >= p.fillsSeen
}

// Fill implements cache.Policy: an unhinted fill. A hint reaches the
// Protector only through FillHinted.
func (p *Protector) Fill(set, way int, a *cache.AccessInfo) {
	p.FillHinted(set, way, a, false)
}

// FillHinted is Fill with the fill's sharing hint passed beside the
// access: delegate, then promote and mark protected when shared is set.
// Every experiment lane's wrapper owns its hint (an oracle column, a
// predictor the lane drives) and calls it from its own Fill, so the
// shared stream record never carries the bit. A hooked sequential replay
// lane, which only the reference tests and the benchmark's probes build,
// hands it its PredictShared hook's verdict instead.
func (p *Protector) FillHinted(set, way int, a *cache.AccessInfo, shared bool) {
	p.base.Fill(set, way, a)
	p.fillsSeen++
	if shared {
		p.fillsHinted++
	}
	if p.fillsSeen >= gateWindow {
		p.fillsSeen /= 2
		p.fillsHinted /= 2
	}
	word, bit := p.protBit(set, way)
	*word &^= bit // the previous occupant's protection ends with it
	if !shared {
		if p.demoteActive() {
			if d, ok := p.base.(demoter); ok {
				d.Demote(set, way)
				p.stats.Demotions++
			}
		}
		return
	}
	p.stats.ProtectedFills++
	// Promote to the base policy's highest-protection position (MRU for
	// stack policies, RRPV 0 for the RRIP family) — via Promote when the
	// base offers a training-free promotion, otherwise via Hit.
	if pr, ok := p.base.(promoter); ok {
		pr.Promote(set, way)
	} else {
		p.base.Hit(set, way, a)
	}
	p.stats.Promotions++
	if p.opts.Strength >= Full {
		*word |= bit
		p.lines[set*p.ways+way] = line{skipsLeft: p.budget, fillCore: a.Core}
	}
}

// protected reports whether way in set currently holds a protected block.
func (p *Protector) protected(set, way int) bool {
	word, bit := p.protBit(set, way)
	return *word&bit != 0
}

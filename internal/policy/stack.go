package policy

import (
	"sharellc/internal/cache"
	"sharellc/internal/mem"
	"sharellc/internal/rng"
)

// LRUPolicy wraps cache.LRU (which lives in package cache so the private
// levels can use it without importing the catalogue) and adds victim keys
// for the protection wrapper.
type LRUPolicy struct{ cache.LRU }

// NewLRUPolicy returns the LRU baseline.
func NewLRUPolicy() *LRUPolicy { return &LRUPolicy{} }

// VictimKeys implements core.victimKeyer: least-recent first (a lower
// stamp is older, so the key is the negated stamp).
func (p *LRUPolicy) VictimKeys(set int, dst []int64) {
	for w := range dst {
		dst[w] = -int64(p.Stamp(set, w))
	}
}

// random evicts a uniformly random way. It is the weakest reference point
// in the catalogue and a sanity check for the experiment harness.
type random struct {
	ways int
	rnd  *rng.Source
}

// newRandom returns a Random policy drawing from rnd.
func newRandom(rnd *rng.Source) *random { return &random{rnd: rnd} }

// Name implements cache.Policy.
func (p *random) Name() string { return "random" }

// Attach implements cache.Policy.
func (p *random) Attach(sets, ways int) { p.ways = ways }

// Hit implements cache.Policy.
func (p *random) Hit(int, int, *cache.AccessInfo) {}

// Fill implements cache.Policy.
func (p *random) Fill(int, int, *cache.AccessInfo) {}

// Victim implements cache.Policy.
func (p *random) Victim(int, *cache.AccessInfo) int { return p.rnd.Intn(p.ways) }

// fifo evicts in fill order, ignoring hits.
type fifo struct {
	ways  int
	stamp []int64
	clock int64
}

// newFIFO returns a FIFO policy.
func newFIFO() *fifo { return &fifo{} }

// Name implements cache.Policy.
func (p *fifo) Name() string { return "fifo" }

// Attach implements cache.Policy.
func (p *fifo) Attach(sets, ways int) {
	p.ways = ways
	p.stamp = mem.Grab[int64](sets * ways)
	p.clock = 0
}

// Release implements cache.Releaser.
func (p *fifo) Release() {
	mem.Release(p.stamp)
	p.stamp = nil
}

// Hit implements cache.Policy. FIFO ignores hits.
func (p *fifo) Hit(int, int, *cache.AccessInfo) {}

// Fill implements cache.Policy.
func (p *fifo) Fill(set, way int, _ *cache.AccessInfo) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// Demote moves way to the front of the eviction queue (core.demoter).
func (p *fifo) Demote(set, way int) {
	base := set * p.ways
	min := p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < min {
			min = s
		}
	}
	p.stamp[set*p.ways+way] = min - 1
}

// Victim implements cache.Policy: the oldest fill.
func (p *fifo) Victim(set int, _ *cache.AccessInfo) int {
	base := set * p.ways
	victim, min := 0, p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < min {
			victim, min = w, s
		}
	}
	return victim
}

// PerSetIndependent reports that FIFO qualifies for set-sharded replay:
// within-set stamp order is independent of cross-set interleaving.
func (p *fifo) PerSetIndependent() bool { return true }

// VictimKeys implements core.victimKeyer: oldest fill first.
func (p *fifo) VictimKeys(set int, dst []int64) {
	for w, s := range p.stamp[set*p.ways : (set+1)*p.ways] {
		dst[w] = -s
	}
}

// nru is the not-recently-used policy found in commercial LLCs: one
// reference bit per line. Fills and hits set the bit; the victim is the
// lowest-numbered way with a clear bit, and when all bits in a set are set
// they are cleared (except the just-used way's semantics follow the usual
// formulation: clear all, then pick way 0).
// Reference "bits" are one byte per line (0 = clear, 1 = set): flat by
// line index so the batch kernel updates them without recomputing the
// set, and byte-wide so its victim search can scan eight ways per
// machine word (see NewBatchKernel).
type nru struct {
	ways int
	ref  []uint8
}

// newNRU returns an NRU policy.
func newNRU() *nru { return &nru{} }

// Name implements cache.Policy.
func (p *nru) Name() string { return "nru" }

// Attach implements cache.Policy.
func (p *nru) Attach(sets, ways int) {
	p.ways = ways
	p.ref = mem.Grab[uint8](sets * ways)
}

// Release implements cache.Releaser.
func (p *nru) Release() {
	mem.Release(p.ref)
	p.ref = nil
}

// Hit implements cache.Policy.
func (p *nru) Hit(set, way int, _ *cache.AccessInfo) { p.ref[set*p.ways+way] = 1 }

// Fill implements cache.Policy.
func (p *nru) Fill(set, way int, _ *cache.AccessInfo) { p.ref[set*p.ways+way] = 1 }

// Demote clears way's reference bit, making it a preferred victim
// (core.demoter).
func (p *nru) Demote(set, way int) { p.ref[set*p.ways+way] = 0 }

// Victim implements cache.Policy.
func (p *nru) Victim(set int, _ *cache.AccessInfo) int {
	base := set * p.ways
	for w := 0; w < p.ways; w++ {
		if p.ref[base+w] == 0 {
			return w
		}
	}
	// All recently used: age the whole set and take way 0.
	for w := 0; w < p.ways; w++ {
		p.ref[base+w] = 0
	}
	return 0
}

// PerSetIndependent reports that NRU qualifies for set-sharded replay: its
// reference bits are pure per-set state.
func (p *nru) PerSetIndependent() bool { return true }

// VictimKeys implements core.victimKeyer: clear-bit ways outrank set-bit
// ways.
func (p *nru) VictimKeys(set int, dst []int64) {
	for w, r := range p.ref[set*p.ways : (set+1)*p.ways] {
		dst[w] = 1 - int64(r)
	}
}

// lipCore is the shared machinery of LIP and BIP: LRU stamps with
// configurable insertion position.
type lipCore struct {
	ways  int
	stamp []int64
	clock int64
}

func (p *lipCore) Attach(sets, ways int) {
	p.ways = ways
	p.stamp = mem.Grab[int64](sets * ways)
	// Start above zero so insertAtLRU's min-1 never collides with the
	// zero stamps of untouched ways in other sets.
	p.clock = 1 << 32
}

// Release implements cache.Releaser.
func (p *lipCore) Release() {
	mem.Release(p.stamp)
	p.stamp = nil
}

func (p *lipCore) Hit(set, way int, _ *cache.AccessInfo) { p.touchMRU(set, way) }

// Promote moves way to MRU (core.promoter).
func (p *lipCore) Promote(set, way int) { p.touchMRU(set, way) }

// Demote moves way to the LRU position (core.demoter).
func (p *lipCore) Demote(set, way int) { p.insertAtLRU(set, way) }

func (p *lipCore) touchMRU(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// insertAtLRU gives way the smallest stamp in its set, making it the next
// victim unless it is re-referenced first.
func (p *lipCore) insertAtLRU(set, way int) {
	base := set * p.ways
	min := p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < min {
			min = s
		}
	}
	p.stamp[base+way] = min - 1
}

func (p *lipCore) Victim(set int, _ *cache.AccessInfo) int {
	base := set * p.ways
	victim, min := 0, p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < min {
			victim, min = w, s
		}
	}
	return victim
}

// VictimKeys implements core.victimKeyer: smallest stamp first.
func (p *lipCore) VictimKeys(set int, dst []int64) {
	for w, s := range p.stamp[set*p.ways : (set+1)*p.ways] {
		dst[w] = -s
	}
}

// lip (LRU-insertion policy, Qureshi et al. ISCA'07) inserts fills at the
// LRU position so single-use blocks fall out immediately; a hit promotes
// to MRU.
type lip struct{ lipCore }

// newLIP returns a LIP policy.
func newLIP() *lip { return &lip{} }

// Name implements cache.Policy.
func (p *lip) Name() string { return "lip" }

// Fill implements cache.Policy.
func (p *lip) Fill(set, way int, _ *cache.AccessInfo) { p.insertAtLRU(set, way) }

// PerSetIndependent reports that LIP qualifies for set-sharded replay.
// Declared on LIP (not lipCore) deliberately: BIP and DIP embed lipCore
// but draw on a shared RNG / dueling selector and must not inherit it.
func (p *lip) PerSetIndependent() bool { return true }

// bip (bimodal insertion policy) is LIP that inserts at MRU with a small
// probability epsilon (1/32), letting it adapt to slowly-changing working
// sets.
type bip struct {
	lipCore
	rnd *rng.Source
}

// bipEpsilon is the probability BIP inserts at MRU.
const bipEpsilon = 1.0 / 32

// newBIP returns a BIP policy drawing its insertion coin from rnd.
func newBIP(rnd *rng.Source) *bip { return &bip{rnd: rnd} }

// Name implements cache.Policy.
func (p *bip) Name() string { return "bip" }

// Fill implements cache.Policy.
func (p *bip) Fill(set, way int, _ *cache.AccessInfo) {
	if p.rnd.Bool(bipEpsilon) {
		p.touchMRU(set, way)
	} else {
		p.insertAtLRU(set, way)
	}
}

// dip (dynamic insertion policy) set-duels LRU against BIP: a few leader
// sets always run one constituent, a saturating counter tracks which
// leader group misses less, and follower sets adopt the winner.
type dip struct {
	lipCore
	rnd  *rng.Source
	duel duel
}

// newDIP returns a DIP policy.
func newDIP(rnd *rng.Source) *dip { return &dip{rnd: rnd} }

// Name implements cache.Policy.
func (p *dip) Name() string { return "dip" }

// Attach implements cache.Policy.
func (p *dip) Attach(sets, ways int) {
	p.lipCore.Attach(sets, ways)
	p.duel.init(sets)
}

// Fill implements cache.Policy.
func (p *dip) Fill(set, way int, a *cache.AccessInfo) {
	p.duel.observeMiss(set)
	if p.duel.useA(set) { // constituent A = LRU
		p.touchMRU(set, way)
		return
	}
	// Constituent B = BIP.
	if p.rnd.Bool(bipEpsilon) {
		p.touchMRU(set, way)
	} else {
		p.insertAtLRU(set, way)
	}
}

// duel implements set-dueling (Qureshi et al.): leader sets for
// constituents A and B and a 10-bit policy-selection counter that counts
// misses in A-leaders up and misses in B-leaders down. Followers use A
// while the counter is below the midpoint.
type duel struct {
	period int // leader spacing
	psel   int
	max    int
}

func (d *duel) init(sets int) {
	d.period = 64
	if sets < d.period {
		d.period = sets // degenerate small caches: every set duels
	}
	d.max = 1 << 10
	d.psel = d.max / 2
}

// kind reports the role of set: +1 A-leader, -1 B-leader, 0 follower.
func (d *duel) kind(set int) int {
	switch set % d.period {
	case 0:
		return +1
	case d.period/2 + 1:
		return -1
	default:
		return 0
	}
}

// observeMiss updates the selector when a miss (fill) happens in a leader.
func (d *duel) observeMiss(set int) {
	switch d.kind(set) {
	case +1:
		if d.psel < d.max-1 {
			d.psel++
		}
	case -1:
		if d.psel > 0 {
			d.psel--
		}
	}
}

// useA reports whether set should run constituent A.
func (d *duel) useA(set int) bool {
	switch d.kind(set) {
	case +1:
		return true
	case -1:
		return false
	default:
		return d.psel < d.max/2
	}
}

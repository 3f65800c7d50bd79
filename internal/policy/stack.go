package policy

import (
	"sharellc/internal/cache"
	"sharellc/internal/mem"
	"sharellc/internal/rng"
)

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

// VictimKeys implements core.victimKeyer: clear-bit ways outrank set-bit
// ways.
func (p *nru) VictimKeys(set int, dst []int64) {
	for w, r := range p.ref[set*p.ways : (set+1)*p.ways] {
		dst[w] = 1 - int64(r)
	}
}

// lip is the LRU-insertion family (Qureshi et al. ISCA'07): LRU stamps
// whose hits promote to MRU and whose fills insert per the rule's mode.
// LIP inserts every fill at the LRU position, so single-use blocks fall
// out immediately; BIP inserts at MRU with probability bimodalEpsilon,
// adapting to slowly-changing working sets; DIP set-duels LRU (every
// fill at MRU) against BIP.
type lip struct {
	rule
	ways  int
	stamp []int64
	clock int64
}

// newLIP returns the LIP-family policy of mode m; the bimodal and
// dueling modes draw their coin from rnd.
func newLIP(m mode, rnd *rng.Source) *lip { return &lip{rule: rule{mode: m, rnd: rnd}} }

// Name implements cache.Policy.
func (p *lip) Name() string { return [...]string{"lip", "bip", "dip"}[p.mode] }

// Attach implements cache.Policy.
func (p *lip) Attach(sets, ways int) {
	p.ways = ways
	p.stamp = mem.Grab[int64](sets * ways)
	// Start above zero so insertAtLRU's min-1 never collides with the
	// zero stamps of untouched ways in other sets.
	p.clock = 1 << 32
	p.duel.init(sets)
}

// Release implements cache.Releaser.
func (p *lip) Release() {
	mem.Release(p.stamp)
	p.stamp = nil
}

// Hit implements cache.Policy.
func (p *lip) Hit(set, way int, _ *cache.AccessInfo) { p.touchMRU(set, way) }

// Fill implements cache.Policy.
func (p *lip) Fill(set, way int, _ *cache.AccessInfo) {
	if p.atMRU(set) {
		p.touchMRU(set, way)
	} else {
		p.insertAtLRU(set, way)
	}
}

// atMRU is the family's fill rule: whether a fill into set inserts at
// MRU (constituent A's position) rather than at LRU. LIP never does.
func (p *lip) atMRU(set int) bool { return p.mode != static && p.fillA(set) }

// Promote moves way to MRU (core.promoter).
func (p *lip) Promote(set, way int) { p.touchMRU(set, way) }

// Demote moves way to the LRU position (core.demoter).
func (p *lip) Demote(set, way int) { p.insertAtLRU(set, way) }

func (p *lip) touchMRU(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// insertAtLRU gives way the smallest stamp in its set, making it the next
// victim unless it is re-referenced first.
func (p *lip) insertAtLRU(set, way int) {
	base := set * p.ways
	p.stamp[base+way] = stampMin(p.stamp, base, p.ways) - 1
}

// Victim implements cache.Policy.
func (p *lip) Victim(set int, _ *cache.AccessInfo) int {
	return stampVictim(p.stamp, set*p.ways, p.ways)
}

// VictimKeys implements core.victimKeyer: smallest stamp first.
func (p *lip) VictimKeys(set int, dst []int64) {
	for w, s := range p.stamp[set*p.ways : (set+1)*p.ways] {
		dst[w] = -s
	}
}

// mode is the insertion rule of the LIP and RRIP families.
type mode uint8

const (
	static  mode = iota // LIP at LRU / SRRIP at long re-reference
	bimodal             // BIP / BRRIP: A's position with probability bimodalEpsilon
	dueling             // DIP / DRRIP: set dueling picks A or bimodal per fill
)

// bimodalEpsilon is the probability a bimodal fill takes constituent A's
// insertion position: MRU for BIP, long re-reference for BRRIP.
const bimodalEpsilon = 1.0 / 32

// rule is a family's insertion rule: its mode and, for the bimodal and
// dueling modes, the coin and the set-dueling selector.
type rule struct {
	mode mode
	rnd  *rng.Source
	duel duel
}

// fillA reports whether a bimodal or dueling fill into set takes
// constituent A's insertion position. A dueling fill first updates the
// selector, then asks it, and flips the coin only for a set that runs
// the bimodal constituent.
func (r *rule) fillA(set int) bool {
	if r.mode == dueling {
		r.duel.observeMiss(set)
		if r.duel.useA(set) {
			return true
		}
	}
	return r.rnd.Bool(bimodalEpsilon)
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

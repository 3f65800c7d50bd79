package policy

import (
	"sharellc/internal/cache"
	"sharellc/internal/mem"
	"sharellc/internal/rng"
)

// rripBits is the RRPV width used by the RRIP family (2 bits, as in the
// original ISCA'10 proposal and in the paper's policy comparison).
const rripBits = 2

// rripMax is the "distant re-reference" RRPV value.
const rripMax = 1<<rripBits - 1

// rripCore holds the per-line re-reference prediction values and the
// shared victim search of SRRIP/BRRIP/DRRIP/SHiP.
type rripCore struct {
	ways int
	rrpv []uint8
}

func (p *rripCore) Attach(sets, ways int) {
	p.ways = ways
	p.rrpv = mem.Grab[uint8](sets * ways)
	// Empty ways start at distant so cold sets fill predictably, though
	// the cache fills invalid ways without consulting the policy anyway.
	for i := range p.rrpv {
		p.rrpv[i] = rripMax
	}
}

// Release implements cache.Releaser.
func (p *rripCore) Release() {
	mem.Release(p.rrpv)
	p.rrpv = nil
}

// hit promotes the line to near-immediate re-reference (hit priority HP).
func (p *rripCore) Hit(set, way int, _ *cache.AccessInfo) {
	p.rrpv[set*p.ways+way] = 0
}

// Victim implements the standard RRIP search: find a way at rripMax,
// aging the whole set until one appears.
func (p *rripCore) Victim(set int, _ *cache.AccessInfo) int {
	base := set * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] == rripMax {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

// VictimKeys implements core.victimKeyer: higher RRPV first, without the
// aging Victim performs.
func (p *rripCore) VictimKeys(set int, dst []int64) {
	for w, v := range p.rrpv[set*p.ways : (set+1)*p.ways] {
		dst[w] = int64(v)
	}
}

// insert sets the fill RRPV of way.
func (p *rripCore) insert(set, way int, v uint8) { p.rrpv[set*p.ways+way] = v }

// Promote moves way to near-immediate re-reference without touching any
// training state (core.promoter).
func (p *rripCore) Promote(set, way int) { p.rrpv[set*p.ways+way] = 0 }

// Demote moves way to distant re-reference (core.demoter).
func (p *rripCore) Demote(set, way int) { p.rrpv[set*p.ways+way] = rripMax }

// srrip (static RRIP, Jaleel et al. ISCA'10) inserts fills at RRPV
// max-1 ("long re-reference interval") and promotes hits to 0.
type srrip struct{ rripCore }

// newSRRIP returns an SRRIP policy.
func newSRRIP() *srrip { return &srrip{} }

// Name implements cache.Policy.
func (p *srrip) Name() string { return "srrip" }

// Fill implements cache.Policy.
func (p *srrip) Fill(set, way int, _ *cache.AccessInfo) { p.insert(set, way, rripMax-1) }

// PerSetIndependent reports that SRRIP qualifies for set-sharded replay.
// Declared on SRRIP (not rripCore) deliberately: BRRIP, DRRIP and SHiP
// embed rripCore but carry cross-set state and must not inherit it.
func (p *srrip) PerSetIndependent() bool { return true }

// brripEpsilon is the probability BRRIP inserts at long (rather than
// distant) re-reference.
const brripEpsilon = 1.0 / 32

// brrip (bimodal RRIP) inserts at distant re-reference most of the time,
// giving thrash resistance analogous to BIP.
type brrip struct {
	rripCore
	rnd *rng.Source
}

// newBRRIP returns a BRRIP policy drawing its insertion coin from rnd.
func newBRRIP(rnd *rng.Source) *brrip { return &brrip{rnd: rnd} }

// Name implements cache.Policy.
func (p *brrip) Name() string { return "brrip" }

// Fill implements cache.Policy.
func (p *brrip) Fill(set, way int, _ *cache.AccessInfo) {
	if p.rnd.Bool(brripEpsilon) {
		p.insert(set, way, rripMax-1)
	} else {
		p.insert(set, way, rripMax)
	}
}

// drrip set-duels SRRIP against BRRIP, the strongest of the paper's
// "recent proposals" that uses no auxiliary prediction table.
type drrip struct {
	rripCore
	rnd  *rng.Source
	duel duel
}

// newDRRIP returns a DRRIP policy.
func newDRRIP(rnd *rng.Source) *drrip { return &drrip{rnd: rnd} }

// Name implements cache.Policy.
func (p *drrip) Name() string { return "drrip" }

// Attach implements cache.Policy.
func (p *drrip) Attach(sets, ways int) {
	p.rripCore.Attach(sets, ways)
	p.duel.init(sets)
}

// Fill implements cache.Policy.
func (p *drrip) Fill(set, way int, _ *cache.AccessInfo) {
	p.duel.observeMiss(set)
	if p.duel.useA(set) { // A = SRRIP
		p.insert(set, way, rripMax-1)
		return
	}
	if p.rnd.Bool(brripEpsilon) { // B = BRRIP
		p.insert(set, way, rripMax-1)
	} else {
		p.insert(set, way, rripMax)
	}
}

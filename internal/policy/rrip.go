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

// Promote moves way to near-immediate re-reference without touching any
// training state (core.promoter).
func (p *rripCore) Promote(set, way int) { p.rrpv[set*p.ways+way] = 0 }

// Demote moves way to distant re-reference (core.demoter).
func (p *rripCore) Demote(set, way int) { p.rrpv[set*p.ways+way] = rripMax }

// rrip is the RRIP family (Jaleel et al. ISCA'10): hits promote to
// near-immediate re-reference and fills insert per the rule's mode.
// SRRIP inserts every fill at RRPV max-1 ("long re-reference
// interval"); BRRIP inserts at distant re-reference except with
// probability bimodalEpsilon, giving thrash resistance analogous to
// BIP; DRRIP set-duels SRRIP against BRRIP, the strongest of the
// paper's "recent proposals" that uses no auxiliary prediction table.
type rrip struct {
	rripCore
	rule
}

// newRRIP returns the RRIP-family policy of mode m; the bimodal and
// dueling modes draw their coin from rnd.
func newRRIP(m mode, rnd *rng.Source) *rrip { return &rrip{rule: rule{mode: m, rnd: rnd}} }

// Name implements cache.Policy.
func (p *rrip) Name() string { return [...]string{"srrip", "brrip", "drrip"}[p.mode] }

// Attach implements cache.Policy.
func (p *rrip) Attach(sets, ways int) {
	p.rripCore.Attach(sets, ways)
	p.duel.init(sets)
}

// Fill implements cache.Policy.
func (p *rrip) Fill(set, way int, _ *cache.AccessInfo) { p.rrpv[set*p.ways+way] = p.fillRRPV(set) }

// fillRRPV is the family's fill rule: the RRPV a fill into set inserts
// at, long re-reference (constituent A's; SRRIP's always) or distant.
func (p *rrip) fillRRPV(set int) uint8 {
	if p.mode == static || p.fillA(set) {
		return rripMax - 1
	}
	return rripMax
}

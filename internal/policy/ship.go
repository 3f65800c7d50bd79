package policy

import (
	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// ship (signature-based hit prediction, Wu et al. MICRO'11) augments
// SRRIP with a table of saturating counters indexed by a signature of the
// fill-triggering instruction's PC. Signatures whose past fills tended to
// die without reuse insert at distant re-reference; the rest insert at
// long re-reference, as SRRIP does.
//
// SHiP is the closest published relative of the paper's PC-indexed sharing
// predictor — both bet that the fill PC predicts a block's future — which
// is exactly why the paper includes it in the sharing-awareness
// comparison.
type ship struct {
	rripCore
	shct     []uint8 // signature history counter table
	lineSig  []uint16
	lineUsed []bool
}

// shipTableBits sizes the SHCT at 16K entries, as in the original paper.
const shipTableBits = 14

// shipCounterMax is the saturating-counter ceiling (3-bit counters).
const shipCounterMax = 7

// newSHiP returns a SHiP-PC policy.
func newSHiP() *ship { return &ship{} }

// Name implements cache.Policy.
func (p *ship) Name() string { return "ship" }

// Attach implements cache.Policy.
func (p *ship) Attach(sets, ways int) {
	p.rripCore.Attach(sets, ways)
	p.shct = mem.Grab[uint8](1 << shipTableBits)
	// Start weakly reusable so cold signatures behave like SRRIP.
	for i := range p.shct {
		p.shct[i] = 1
	}
	p.lineSig = mem.Grab[uint16](sets * ways)
	p.lineUsed = mem.Grab[bool](sets * ways)
}

// Release implements cache.Releaser.
func (p *ship) Release() {
	p.rripCore.Release()
	mem.Release(p.shct)
	mem.Release(p.lineSig)
	mem.Release(p.lineUsed)
	p.shct, p.lineSig, p.lineUsed = nil, nil, nil
}

// Signature hashes a PC into an SHCT index. Exported for the predictor
// study, which reuses the same signature construction.
func Signature(pc uint64) uint16 {
	// Fold the PC down; drop the low 2 bits (instruction alignment).
	x := pc >> 2
	x ^= x >> shipTableBits
	x ^= x >> (2 * shipTableBits)
	return uint16(x & (1<<shipTableBits - 1))
}

// Hit implements cache.Policy: promote and mark the line's signature as
// reused (SHCT increments once per residency, on first reuse).
func (p *ship) Hit(set, way int, a *cache.AccessInfo) {
	p.rripCore.Hit(set, way, a)
	idx := set*p.ways + way
	if !p.lineUsed[idx] {
		p.lineUsed[idx] = true
		if c := p.shct[p.lineSig[idx]]; c < shipCounterMax {
			p.shct[p.lineSig[idx]] = c + 1
		}
	}
}

// Victim implements cache.Policy: before the line chosen by the RRIP
// search is displaced, a dead-on-eviction residency trains its signature
// down.
func (p *ship) Victim(set int, a *cache.AccessInfo) int {
	way := p.rripCore.Victim(set, a)
	p.ObserveEvict(set, way)
	return way
}

// ObserveEvict trains the SHCT when a line leaves the cache without reuse.
// It is called by Victim, and directly by wrappers (core.Protector) that
// choose the victim from VictimKeys instead of via Victim.
func (p *ship) ObserveEvict(set, way int) {
	idx := set*p.ways + way
	if !p.lineUsed[idx] {
		if c := p.shct[p.lineSig[idx]]; c > 0 {
			p.shct[p.lineSig[idx]] = c - 1
		}
	}
}

// Fill implements cache.Policy.
func (p *ship) Fill(set, way int, a *cache.AccessInfo) {
	sig := Signature(a.PC)
	idx := set*p.ways + way
	p.lineSig[idx] = sig
	p.lineUsed[idx] = false
	if p.shct[sig] == 0 {
		p.insert(set, way, rripMax) // predicted dead: distant
	} else {
		p.insert(set, way, rripMax-1) // SRRIP default: long
	}
}

// shipS ("SHiP-S") is the sharing-aware SHiP variant this paper's
// characterization motivates — a concrete instance of its future-work
// direction. The SHCT trains on *cross-core* reuse: a hit from a core
// other than the filler counts double, so fill sites that produce shared
// blocks saturate toward protected insertion while sites producing
// single-use private streams train toward distant insertion. Confident
// sharing sites additionally insert at RRPV 0.
type shipS struct {
	ship
	lineCore []uint8
}

// newSHiPS returns the sharing-aware SHiP variant.
func newSHiPS() *shipS { return &shipS{} }

// Name implements cache.Policy.
func (p *shipS) Name() string { return "ship-s" }

// Attach implements cache.Policy.
func (p *shipS) Attach(sets, ways int) {
	p.ship.Attach(sets, ways)
	p.lineCore = mem.Grab[uint8](sets * ways)
}

// Release implements cache.Releaser.
func (p *shipS) Release() {
	p.ship.Release()
	mem.Release(p.lineCore)
	p.lineCore = nil
}

// Hit implements cache.Policy: cross-core reuse trains the signature a
// second step.
func (p *shipS) Hit(set, way int, a *cache.AccessInfo) {
	idx := set*p.ways + way
	firstReuse := !p.lineUsed[idx]
	p.ship.Hit(set, way, a)
	if firstReuse && a.Core != p.lineCore[idx] {
		if c := p.shct[p.lineSig[idx]]; c < shipCounterMax {
			p.shct[p.lineSig[idx]] = c + 1
		}
	}
}

// Fill implements cache.Policy: remember the filler and let confident
// sharing sites insert at the most-protected position.
func (p *shipS) Fill(set, way int, a *cache.AccessInfo) {
	p.ship.Fill(set, way, a)
	idx := set*p.ways + way
	p.lineCore[idx] = a.Core
	if p.shct[p.lineSig[idx]] >= shipCounterMax-1 {
		p.insert(set, way, 0) // confident sharing site: near-immediate
	}
}

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
//
// With shared set it is "SHiP-S", the sharing-aware variant this
// paper's characterization motivates — a concrete instance of its
// future-work direction. The SHCT trains on *cross-core* reuse: a first
// reuse from a core other than the filler counts double, so fill sites
// that produce shared blocks saturate toward protected insertion while
// sites producing single-use private streams train toward distant
// insertion. Confident sharing sites additionally insert at RRPV 0.
type ship struct {
	rripCore
	shared bool       // SHiP-S
	shct   []uint8    // signature history counter table
	lines  []shipLine // one per (set, way)
}

// shipLine is what SHiP keeps of a line's residency.
type shipLine struct {
	sig  uint16 // fill signature
	used bool   // reused since the fill
	core uint8  // filling core; SHiP-S reads it
}

// shipTableBits sizes the SHCT at 16K entries, as in the original paper.
const shipTableBits = 14

// shipCounterMax is the saturating-counter ceiling (3-bit counters).
const shipCounterMax = 7

// newSHiP returns a SHiP-PC policy, sharing-aware (SHiP-S) when shared.
func newSHiP(shared bool) *ship { return &ship{shared: shared} }

// Name implements cache.Policy.
func (p *ship) Name() string {
	if p.shared {
		return "ship-s"
	}
	return "ship"
}

// Attach implements cache.Policy.
func (p *ship) Attach(sets, ways int) {
	p.rripCore.Attach(sets, ways)
	p.shct = mem.Grab[uint8](1 << shipTableBits)
	// Start weakly reusable so cold signatures behave like SRRIP.
	for i := range p.shct {
		p.shct[i] = 1
	}
	p.lines = mem.Grab[shipLine](sets * ways)
}

// Release implements cache.Releaser.
func (p *ship) Release() {
	p.rripCore.Release()
	mem.Release(p.shct)
	mem.Release(p.lines)
	p.shct, p.lines = nil, nil
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

// Hit implements cache.Policy.
func (p *ship) Hit(set, way int, a *cache.AccessInfo) { p.hit(set*p.ways+way, a.Core) }

// hit is the hit rule at line li: promote, and train on the residency's
// first reuse.
func (p *ship) hit(li int, core uint8) {
	p.rrpv[li] = 0
	if !p.lines[li].used {
		p.firstReuse(li, core)
	}
}

// firstReuse marks li's residency reused and trains its signature up —
// a second step for SHiP-S when core is not the filler. Kept out of
// hit so that hit, the kernel's majority path, inlines.
//
//go:noinline
func (p *ship) firstReuse(li int, core uint8) {
	ln := &p.lines[li]
	ln.used = true
	p.trainUp(ln.sig)
	if p.shared && core != ln.core {
		p.trainUp(ln.sig)
	}
}

// trainUp counts one reuse of sig, saturating.
func (p *ship) trainUp(sig uint16) {
	if c := p.shct[sig]; c < shipCounterMax {
		p.shct[sig] = c + 1
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
func (p *ship) ObserveEvict(set, way int) { p.evict(set*p.ways + way) }

// evict is the eviction rule at line li: a residency that ends unused
// trains its signature down.
func (p *ship) evict(li int) {
	if ln := p.lines[li]; !ln.used {
		if c := p.shct[ln.sig]; c > 0 {
			p.shct[ln.sig] = c - 1
		}
	}
}

// Fill implements cache.Policy.
func (p *ship) Fill(set, way int, a *cache.AccessInfo) { p.fill(set*p.ways+way, a) }

// fill is the fill rule at line li: record a's signature and core, and
// insert at distant re-reference when the signature predicts a dead
// block, else at long — or, for SHiP-S, at 0 when it is a confident
// sharing site.
func (p *ship) fill(li int, a *cache.AccessInfo) {
	sig := Signature(a.PC)
	p.lines[li] = shipLine{sig: sig, core: a.Core}
	v := uint8(rripMax - 1)
	switch c := p.shct[sig]; {
	case c == 0:
		v = rripMax
	case p.shared && c >= shipCounterMax-1:
		v = 0
	}
	p.rrpv[li] = v
}

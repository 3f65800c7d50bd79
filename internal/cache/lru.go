package cache

import "sharellc/internal/mem"

// LRU is the classic least-recently-used replacement policy, implemented
// with per-set recency timestamps. It is the baseline LLC policy of the
// paper. The private levels are LRU too but do not use this type: they
// keep each set in recency order instead (privCache in hierarchy.go).
//
// LRU lives in package cache (rather than internal/policy, which imports
// this package) so that System, the reference hierarchy and the tests here
// have a policy at hand; the internal/policy catalogue builds it as "lru".
type LRU struct {
	ways  int
	stamp []uint64 // sets*ways recency stamps; larger = more recent
	clock uint64
}

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Attach implements Policy.
func (p *LRU) Attach(sets, ways int) {
	p.ways = ways
	p.stamp = mem.Grab[uint64](sets * ways)
	// Start well above zero so a touched way's stamp never falls to a
	// never-filled way's 0. Demote's min-1 still wraps when the set has a
	// never-filled way: the demoted stamp becomes MaxUint64, which Victim
	// (unsigned) ranks most recent and VictimKeys (negated as int64)
	// least recent. Pinned by TestLRUDemoteWrapsOnUnfilledSet; fixing it
	// changes table bytes.
	p.clock = 1 << 32
}

// Release implements Releaser.
func (p *LRU) Release() {
	mem.Release(p.stamp)
	p.stamp = nil
}

// Hit implements Policy.
func (p *LRU) Hit(set, way int, _ *AccessInfo) { p.touch(set, way) }

// Fill implements Policy.
func (p *LRU) Fill(set, way int, _ *AccessInfo) { p.touch(set, way) }

// Victim implements Policy: the way with the smallest stamp.
func (p *LRU) Victim(set int, _ *AccessInfo) int {
	base := set * p.ways
	victim, min := 0, p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < min {
			victim, min = w, s
		}
	}
	return victim
}

// VictimKeys implements core.victimKeyer: least-recent first (a lower
// stamp is older, so the key is the negated stamp).
func (p *LRU) VictimKeys(set int, dst []int64) {
	for w, s := range p.stamp[set*p.ways : (set+1)*p.ways] {
		dst[w] = -int64(s)
	}
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

// Demote moves way to the LRU position of its set, making it the next
// victim unless re-referenced first (sharing-aware insertion demotion).
func (p *LRU) Demote(set, way int) {
	base := set * p.ways
	min := p.stamp[base]
	for w := 1; w < p.ways; w++ {
		if s := p.stamp[base+w]; s < min {
			min = s
		}
	}
	p.stamp[base+way] = min - 1
}

// minStampWay returns the way of the smallest stamp in the set at base.
// Kept out of the kernel closure on purpose: as a leaf over one slice
// the scan compiles to a tight two-register loop, where the same lines
// inlined into the capture-heavy closure body spill.
//
//go:noinline
func minStampWay(stamp []uint64, base, ways int) int {
	w, min := 0, stamp[base]
	for x := 1; x < ways; x++ {
		if s := stamp[base+x]; s < min {
			w, min = x, s
		}
	}
	return w
}

// NewBatchKernel implements BatchPolicy: the LRU probe with touch and
// the min-stamp victim scan inlined into the chunk loop. The stamp
// array is flat by line index, so the hit path — the vast majority —
// touches only the recency stamp at li-1 and never recomputes the set.
func (p *LRU) NewBatchKernel(c *SetAssoc) BatchKernel {
	mask, ways := c.KernelGeom()
	valid := c.KernelValid()
	stamp := p.stamp
	return func(blk []uint64, id []uint32, accs []AccessInfo, active, lineID, out []uint32) {
		clock := p.clock
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				clock++
				stamp[li-1] = clock
				out[k] = (li - 1) | BatchHit
				continue
			}
			set := int(blk[k] & mask)
			var li, o uint32
			if int(valid[set]) == ways {
				base := set * ways
				li, o = uint32(base+minStampWay(stamp, base, ways)), BatchEvict
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			clock++
			stamp[li] = clock
			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
		p.clock = clock
	}
}

// Stamp returns the raw recency stamp of way in set (larger = more
// recent). Exposed so wrappers can rank victims without re-deriving state.
func (p *LRU) Stamp(set, way int) uint64 { return p.stamp[set*p.ways+way] }

// KernelState exposes the recency stamps (flat by line index) and the
// clock to a wrapper's batch kernel, which then performs Hit, Fill and
// Demote on them in place (core.Protector's protected-LRU kernel). Valid
// after Attach.
func (p *LRU) KernelState() (stamp []uint64, clock *uint64) { return p.stamp, &p.clock }

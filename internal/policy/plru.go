package policy

import (
	"math/bits"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// plru is tree-based pseudo-LRU, the approximation of LRU that commercial
// caches actually implement: a binary tree of direction bits per set,
// flipped away from a way on every touch, followed toward the "cold" side
// on victim selection. State is ways-1 bits per set instead of full
// recency ordering.
//
// PLRU requires a power-of-two associativity.
type plru struct {
	ways   int
	levels int
	tree   []uint64 // one bitset of ways-1 direction bits per set
}

// newPLRU returns a tree pseudo-LRU policy.
func newPLRU() *plru { return &plru{} }

// Name implements cache.Policy.
func (p *plru) Name() string { return "plru" }

// Attach implements cache.Policy. It panics on non-power-of-two
// associativity (a configuration error, like a bad cache geometry).
func (p *plru) Attach(sets, ways int) {
	if ways <= 0 || ways&(ways-1) != 0 {
		panic("policy: PLRU requires power-of-two associativity")
	}
	if ways > 64 {
		panic("policy: PLRU supports at most 64 ways")
	}
	p.ways = ways
	p.levels = bits.TrailingZeros(uint(ways))
	p.tree = mem.Grab[uint64](sets)
}

// Release implements cache.Releaser.
func (p *plru) Release() {
	mem.Release(p.tree)
	p.tree = nil
}

// touch flips every tree node on the path to way so the path points away
// from it.
func (p *plru) touch(set, way int) {
	if p.levels == 0 {
		return
	}
	node := 0 // root at index 0; children of n are 2n+1, 2n+2
	for level := p.levels - 1; level >= 0; level-- {
		goRight := way>>level&1 == 1
		if goRight {
			// Point the node LEFT (away from the touched way).
			p.tree[set] &^= 1 << node
			node = 2*node + 2
		} else {
			p.tree[set] |= 1 << node
			node = 2*node + 1
		}
	}
}

// Hit implements cache.Policy.
func (p *plru) Hit(set, way int, _ *cache.AccessInfo) { p.touch(set, way) }

// Fill implements cache.Policy.
func (p *plru) Fill(set, way int, _ *cache.AccessInfo) { p.touch(set, way) }

// Promote implements core.promoter.
func (p *plru) Promote(set, way int) { p.touch(set, way) }

// Demote points the whole path at way, making it the next victim
// (core.demoter).
func (p *plru) Demote(set, way int) {
	node := 0
	for level := p.levels - 1; level >= 0; level-- {
		goRight := way>>level&1 == 1
		if goRight {
			p.tree[set] |= 1 << node
			node = 2*node + 2
		} else {
			p.tree[set] &^= 1 << node
			node = 2*node + 1
		}
	}
}

// Victim implements cache.Policy: follow the direction bits from the root
// (bit set = go right).
func (p *plru) Victim(set int, _ *cache.AccessInfo) int {
	node, way := 0, 0
	for level := 0; level < p.levels; level++ {
		if p.tree[set]>>node&1 == 1 {
			way = way<<1 | 1
			node = 2*node + 2
		} else {
			way <<= 1
			node = 2*node + 1
		}
	}
	return way
}

// VictimKeys implements core.victimKeyer: a way's key is how many
// direction bits along its path currently point at it (the victim path
// scores highest).
func (p *plru) VictimKeys(set int, dst []int64) {
	tree := p.tree[set]
	for w := range dst {
		score := int64(0)
		node := 0
		for level := p.levels - 1; level >= 0; level-- {
			goRight := w>>level&1 == 1
			if goRight == (tree>>node&1 == 1) {
				score++ // this node points toward w
			}
			if goRight {
				node = 2*node + 2
			} else {
				node = 2*node + 1
			}
		}
		dst[w] = score
	}
}

package policy

import (
	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// opt is Belady's offline-optimal replacement policy: evict the resident
// block whose next reference lies farthest in the future (preferring
// blocks that are never referenced again). It is exact when the replayed
// stream carries precomputed next-use indices (cache.AnnotateNextUse);
// accesses lacking annotation are treated as never-reused.
//
// OPT is the paper's yardstick for how much room any realistic policy —
// sharing-aware or not — has left.
type opt struct {
	ways    int
	nextUse []int32
}

// newOPT returns a Belady OPT policy.
func newOPT() *opt { return &opt{} }

// Name implements cache.Policy.
func (p *opt) Name() string { return "opt" }

// Attach implements cache.Policy.
func (p *opt) Attach(sets, ways int) {
	p.ways = ways
	p.nextUse = mem.Grab[int32](sets * ways)
	for i := range p.nextUse {
		p.nextUse[i] = cache.NoNextUse
	}
}

// Release implements cache.Releaser.
func (p *opt) Release() {
	mem.Release(p.nextUse)
	p.nextUse = nil
}

// Hit implements cache.Policy: the line's horizon advances to the
// access's own next use.
func (p *opt) Hit(set, way int, a *cache.AccessInfo) {
	p.nextUse[set*p.ways+way] = a.NextUse
}

// Fill implements cache.Policy.
func (p *opt) Fill(set, way int, a *cache.AccessInfo) {
	p.nextUse[set*p.ways+way] = a.NextUse
}

// Victim implements cache.Policy: farthest next use wins; never-reused
// lines (NoNextUse) beat everything. Ties go to the lowest way.
func (p *opt) Victim(set int, _ *cache.AccessInfo) int {
	base := set * p.ways
	victim, best := 0, p.horizonAt(base)
	for w := 1; w < p.ways; w++ {
		if h := p.horizonAt(base + w); h > best {
			victim, best = w, h
		}
	}
	return victim
}

// VictimKeys implements core.victimKeyer: farthest next use first.
func (p *opt) VictimKeys(set int, dst []int64) {
	base := set * p.ways
	for w := range dst {
		dst[w] = p.horizonAt(base + w)
	}
}

// horizonAt maps NoNextUse to a value beyond any real stream index so
// never-reused lines always rank first.
func (p *opt) horizonAt(idx int) int64 {
	if h := p.nextUse[idx]; h != cache.NoNextUse {
		return int64(h)
	}
	return 1 << 62
}

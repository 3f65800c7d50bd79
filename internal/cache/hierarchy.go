package cache

import (
	"fmt"

	"sharellc/internal/mem"
	"sharellc/internal/trace"
)

// privCache is one private level: a set-associative cache under plain
// LRU, the only policy the private levels run. Each set keeps its lines
// in recency order, most recent first and invalid ways last, so the order
// is the whole replacement state — no stamps, no Policy or Result per
// reference, and an 8-way set is one host cache line. Outcomes equal
// SetAssoc's under LRU: a fill takes an invalid way while one exists
// and otherwise displaces the least recently touched line.
type privCache struct {
	ways  int
	mask  uint64
	lines []line // sets*ways, row-major by set
}

// newPrivCache sizes one level; Config.Validate has vetted the geometry.
func newPrivCache(sizeBytes, ways int) privCache {
	n := sizeBytes / trace.BlockSize
	return privCache{ways: ways, mask: uint64(n/ways - 1), lines: make([]line, n)}
}

// access presents one reference and reports whether it hit: a hit moves
// the line to the front; a miss fills the block there, displacing the
// least recently touched line if no empty way is left.
func (c *privCache) access(block uint64) (hit bool) {
	base := int(block&c.mask) * c.ways
	set := c.lines[base : base+c.ways]
	front, pos := tagOf(block), len(set)-1
	for w, ln := range set {
		if ln == front {
			pos, hit = w, true
			break
		}
		if !ln.valid() {
			pos = w
			break
		}
	}
	for ; pos > 0; pos-- {
		set[pos] = set[pos-1]
	}
	set[0] = front
	return hit
}

// invalidate drops block if present, closing the gap so that the valid
// lines stay a prefix of the set.
func (c *privCache) invalidate(block uint64) {
	base := int(block&c.mask) * c.ways
	set := c.lines[base : base+c.ways]
	for w, ln := range set {
		if ln == tagOf(block) {
			copy(set[w:], set[w+1:])
			set[len(set)-1] = 0
			return
		}
	}
}

// Hierarchy is the private part of the memory system: per-core L1 and L2
// caches. Accesses that miss in both private levels are the LLC reference
// stream — the input of every replacement-policy experiment.
type Hierarchy struct {
	cfg Config
	l1  []privCache
	l2  []privCache

	refs    uint64 // total references presented
	l1Hits  uint64
	l2Hits  uint64
	llcRefs uint64 // references that fell through to the LLC
}

// newHierarchy builds the private caches described by cfg. They model
// demand traffic only: the paper's experiments concern demand
// references, so no victim is written back toward the LLC.
func newHierarchy(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, newPrivCache(cfg.L1Size, cfg.L1Ways))
		h.l2 = append(h.l2, newPrivCache(cfg.L2Size, cfg.L2Ways))
	}
	return h, nil
}

// access presents one reference to core a.Core's private caches and
// reports whether it missed both levels (and therefore references the LLC).
func (h *Hierarchy) access(a trace.Access) (llcRef bool, err error) {
	if int(a.Core) >= len(h.l1) {
		return false, fmt.Errorf("cache: access from core %d but hierarchy has %d cores", a.Core, h.cfg.Cores)
	}
	h.refs++
	block := a.Addr.BlockID()
	if h.l1[a.Core].access(block) {
		h.l1Hits++
		return false, nil
	}
	if h.l2[a.Core].access(block) {
		h.l2Hits++
		return false, nil
	}
	h.llcRefs++
	return true, nil
}

// invalidate removes block from every private cache; used by an inclusive
// LLC when it evicts a block (back-invalidation).
func (h *Hierarchy) invalidate(block uint64) {
	for i := range h.l1 {
		h.l1[i].invalidate(block)
		h.l2[i].invalidate(block)
	}
}

// Stats reports reference counters: total references, L1 hits, L2 hits and
// the number of references that reached the LLC.
func (h *Hierarchy) Stats() (refs, l1Hits, l2Hits, llcRefs uint64) {
	return h.refs, h.l1Hits, h.l2Hits, h.llcRefs
}

// streamBuilder accumulates an LLC reference stream in fixed-size
// segments from the mem pool, joined once at the end into the one array
// the caller keeps. A plain append over a multi-gigabyte stream re-copies
// the whole prefix on every capacity step; segments write each record
// exactly once and the join copies it exactly once more, handing each
// segment back to the pool as soon as it is copied, so a build's only
// heap allocation that grows with the stream is the stream itself.
// Index is assigned in add, so the record's stream position is final at
// creation.
type streamBuilder struct {
	segs [][]AccessInfo
	seg  []AccessInfo
	n    int
}

// builderSegment is the records per segment: 1 MiB of records, so the
// largest suite stream (about a million records) takes 31 segments and
// two concurrent builds of it stay within the pool's retention bound.
const builderSegment = 1 << 15

// add appends a at the next stream position. It fails once the stream
// holds MaxStreamLen records: no segment's capacity reaches past that
// bound, so the check rides the segment-growth branch and the common
// path has none.
func (b *streamBuilder) add(a AccessInfo) error {
	if len(b.seg) == cap(b.seg) {
		if b.n == MaxStreamLen {
			return errStreamTooLong(MaxStreamLen + 1)
		}
		if b.seg != nil {
			b.segs = append(b.segs, b.seg)
		}
		// A pooled array may hold more than asked for: clip it, so the
		// segment ends at the bound.
		next := min(builderSegment, MaxStreamLen-b.n)
		b.seg = mem.Grab[AccessInfo](next)[:0:next]
	}
	a.Index = int32(b.n)
	b.n++
	b.seg = append(b.seg, a)
	return nil
}

// join returns the stream in one array and releases every segment to
// the pool.
func (b *streamBuilder) join() []AccessInfo {
	out := make([]AccessInfo, 0, b.n)
	for _, s := range append(b.segs, b.seg) {
		out = append(out, s...)
		mem.Release(s)
	}
	b.segs, b.seg = nil, nil
	return out
}

// FilterStream runs the whole trace through a fresh private hierarchy and
// returns the LLC reference stream with Index assigned and NextUse left
// unset (callers that need OPT call AnnotateNextUse).
func FilterStream(r trace.Reader, cfg Config) ([]AccessInfo, *Hierarchy, error) {
	h, err := newHierarchy(cfg)
	if err != nil {
		return nil, nil, err
	}
	var b streamBuilder
	buf := make([]trace.Access, trace.ChunkSize)
	for n := len(buf); n == len(buf); {
		n = trace.ReadBatch(r, buf)
		for _, a := range buf[:n] {
			toLLC, err := h.access(a)
			if err != nil {
				return nil, nil, err
			}
			if toLLC {
				if err := b.add(AccessInfo{Block: a.Addr.BlockID(), Core: a.Core, PC: a.PC, Write: a.Write, NextUse: NoNextUse}); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	return b.join(), h, nil
}

// AnnotateNextUse assigns dense BlockIDs (AssignBlockIDs) and fills in the
// NextUse field of every access in stream with the index of the next
// access to the same block (NoNextUse if none), returning the number of
// distinct blocks. The backward pass that makes Belady OPT exact indexes a
// flat per-block slice, so the ID assignment is the only hashing the whole
// stream preparation performs.
func AnnotateNextUse(stream []AccessInfo) int {
	numBlocks := AssignBlockIDs(stream)
	annotateNextUse(stream, numBlocks)
	return numBlocks
}

// AnnotateNextUseIndexed is AnnotateNextUse for a stream whose BlockIDs
// hold, on entry, an injective dense index of their blocks in [0, span)
// (workloads.Model.BlockIndex): it assigns the same BlockIDs without
// hashing a block, and allocates nothing outside the mem pool.
func AnnotateNextUseIndexed(stream []AccessInfo, span int) int {
	numBlocks := numberIndexed(stream, span)
	annotateNextUse(stream, numBlocks)
	return numBlocks
}

// annotateNextUse fills in NextUse over BlockIDs in [0, numBlocks).
func annotateNextUse(stream []AccessInfo, numBlocks int) {
	next := mem.Grab[int32](numBlocks)
	for i := range next {
		next[i] = NoNextUse
	}
	for i := len(stream) - 1; i >= 0; i-- {
		id := stream[i].BlockID
		stream[i].NextUse = next[id]
		next[id] = int32(i)
	}
	mem.Release(next)
}

// System couples a private hierarchy with an inclusive shared LLC: every
// LLC eviction back-invalidates the block from all private caches. This is
// the full S4 memory system used by integration tests and examples; the
// experiment pipeline uses FilterStream instead so that all policies replay
// an identical LLC stream (see DESIGN.md, key decision 1).
type System struct {
	Hierarchy *Hierarchy
	LLC       *SetAssoc

	llcHits   uint64
	llcMisses uint64
}

// NewSystem builds the full memory system with the given LLC policy.
func NewSystem(cfg Config, llcPolicy Policy) (*System, error) {
	h, err := newHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	llc, err := NewSetAssoc(cfg.LLCSize, cfg.LLCWays, llcPolicy)
	if err != nil {
		return nil, fmt.Errorf("cache: building LLC: %w", err)
	}
	return &System{Hierarchy: h, LLC: llc}, nil
}

// Access runs one reference through the full hierarchy, maintaining
// inclusion, and reports whether it hit somewhere short of memory.
func (s *System) Access(a trace.Access) (hit bool, err error) {
	toLLC, err := s.Hierarchy.access(a)
	if err != nil {
		return false, err
	}
	if !toLLC {
		return true, nil
	}
	n := s.llcHits + s.llcMisses
	if n >= MaxStreamLen {
		return false, errStreamTooLong(n + 1)
	}
	res := s.LLC.Access(AccessInfo{
		Block: a.Addr.BlockID(),
		Core:  a.Core,
		PC:    a.PC,
		Write: a.Write,
		Index: int32(n),
	})
	if res.Evicted {
		s.Hierarchy.invalidate(res.Victim)
	}
	if res.Hit {
		s.llcHits++
		return true, nil
	}
	s.llcMisses++
	return false, nil
}

// LLCStats reports LLC hits and misses observed through Access.
func (s *System) LLCStats() (hits, misses uint64) { return s.llcHits, s.llcMisses }

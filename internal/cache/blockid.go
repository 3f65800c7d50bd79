package cache

import "sharellc/internal/mem"

// Dense block identifiers.
//
// Raw block numbers are sparse 64-bit values, so every structure keyed by
// block — residency trackers, next-use indices, reuse-distance stacks,
// coherence directories — would otherwise pay a hash-map lookup per
// access. An LLC reference stream is fully materialized before any replay
// begins, so the sparse→dense mapping can be built exactly once per
// stream; afterwards every replay pass indexes flat slices.
//
// Convention: a stream either has BlockIDs assigned (distinct blocks ↔
// distinct IDs, IDs in [0, number of distinct blocks)) or is "unassigned" (every
// BlockID still zero, the field's zero value). EnsureBlockIDs tells the
// two apart without a hash pass: an assigned stream with ≥ 2 distinct
// blocks necessarily contains a nonzero ID.

// idGroupBits sets the granularity of the shard-major ID layout: blocks
// are grouped by their low IDGroupBits block bits (LLC set-index bits —
// see sharing.PartitionIndex), and IDs are dense within each group. Any
// power-of-two set shard count up to 1<<IDGroupBits then owns a few
// contiguous ID ranges, so a walk over one shard's sets touches dense
// slices of every per-block array instead of entries scattered across
// the whole block population. The stream snapshots store IDs in this
// layout.
const idGroupBits = 8

// AssignBlockIDs assigns each distinct block of stream a dense uint32 ID
// and returns the number of distinct blocks. IDs are shard-major: grouped
// by the low IDGroupBits block bits, first-touch order within a group
// (deterministic, like everything in the pipeline). It numbers blocks
// through a hash index, for streams whose blocks nothing else numbers (a
// Mix's, a hand-built one); a workload's stream build numbers them
// through the model's dense block index instead (AnnotateNextUseIndexed),
// to the same IDs.
func AssignBlockIDs(stream []AccessInfo) int {
	idx := newBlockIndex()
	blocks := make([]uint64, 0, 1<<16) // distinct blocks, first-touch order
	for i := range stream {
		b := stream[i].Block
		s := idx.find(b)
		if s.ref == 0 {
			s = idx.add(b, len(blocks))
			blocks = append(blocks, b)
		}
		stream[i].BlockID = s.ref - 1 // provisional first-touch ordinal
	}
	layoutShardMajor(stream, blocks)
	return len(blocks)
}

// numberIndexed is AssignBlockIDs for a stream whose BlockIDs hold an
// injective dense index of their blocks in [0, span) on entry: the first
// touches are found through a flat table over that index instead of a
// hash, and the IDs are the same.
func numberIndexed(stream []AccessInfo, span int) int {
	ord := mem.Grab[uint32](span) // first-touch ordinal + 1 per index
	blocks := mem.Grab[uint64](min(span, len(stream)))
	n := 0
	for i := range stream {
		x := stream[i].BlockID
		o := ord[x]
		if o == 0 {
			blocks[n] = stream[i].Block
			n++
			o = uint32(n)
			ord[x] = o
		}
		stream[i].BlockID = o - 1 // provisional first-touch ordinal
	}
	mem.Release(ord)
	layoutShardMajor(stream, blocks[:n])
	mem.Release(blocks)
	return n
}

// layoutShardMajor turns the provisional first-touch ordinals in
// stream's BlockIDs into shard-major IDs: blocks[o] is ordinal o's block,
// and a group's IDs follow its blocks' first-touch order.
func layoutShardMajor(stream []AccessInfo, blocks []uint64) {
	const mask = 1<<idGroupBits - 1
	var next [1 << idGroupBits]uint32 // group size, then allocation cursor
	for _, b := range blocks {
		next[b&mask]++
	}
	sum := uint32(0)
	for g := range next {
		next[g], sum = sum, sum+next[g]
	}
	dense := mem.Grab[uint32](len(blocks))
	for o, b := range blocks {
		dense[o] = next[b&mask]
		next[b&mask]++
	}
	for i := range stream {
		stream[i].BlockID = dense[stream[i].BlockID]
	}
	mem.Release(dense)
}

// blockIndex maps block numbers to first-touch ordinals: a flat
// open-addressed table (linear probing, Fibonacci hashing, at most half
// full, doubled on growth), so a lookup is one multiply and usually one
// probe, and adding a block allocates nothing until the table doubles.
type blockIndex struct {
	slots []blockSlot // power-of-two length
	shift uint        // 64 - log2(len(slots)): hash bits → slot position
	n     int         // used slots
}

// blockSlot is one index cell. The zero slot is empty: a used one has
// ref > 0, which leaves every block number, 0 included, an ordinary key.
type blockSlot struct {
	block uint64
	ref   uint32 // the block's ordinal, plus one
}

// newBlockIndex returns an empty index.
func newBlockIndex() *blockIndex {
	const logSlots = 12
	return &blockIndex{slots: make([]blockSlot, 1<<logSlots), shift: 64 - logSlots}
}

// find returns the slot holding block, or the empty slot where it
// belongs. The index is never full, so the probe terminates.
func (x *blockIndex) find(block uint64) *blockSlot {
	mask := uint64(len(x.slots) - 1)
	for i := (block * 0x9E3779B97F4A7C15) >> x.shift; ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.block == block || s.ref == 0 {
			return s
		}
	}
}

// add records block, which find reported absent, as ordinal ord and
// returns its slot, growing the index first if it would pass half full.
func (x *blockIndex) add(block uint64, ord int) *blockSlot {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	s := x.find(block)
	*s = blockSlot{block: block, ref: uint32(ord) + 1}
	x.n++
	return s
}

// grow doubles the index and re-inserts every key.
func (x *blockIndex) grow() {
	old := x.slots
	x.slots = make([]blockSlot, 2*len(old))
	x.shift--
	for _, s := range old {
		if s.ref != 0 {
			*x.find(s.block) = s
		}
	}
}

// EnsureBlockIDs returns a stream with BlockIDs assigned plus the
// flat-slice length to index them, copying the stream only when the input
// lacks IDs (so callers holding an annotated stream pay one scan and zero
// allocations, while hand-built streams keep working and are never
// mutated). Detection: an assigned stream with ≥ 2 distinct blocks has a
// nonzero BlockID somewhere; all-zero IDs over ≥ 2 distinct blocks means
// unassigned.
func EnsureBlockIDs(stream []AccessInfo) ([]AccessInfo, int) {
	if len(stream) == 0 {
		return stream, 0
	}
	max := uint32(0)
	first := stream[0].Block
	uniform := true
	for i := range stream {
		if id := stream[i].BlockID; id > max {
			max = id
		}
		if stream[i].Block != first {
			uniform = false
		}
	}
	if max == 0 && !uniform {
		cp := make([]AccessInfo, len(stream))
		copy(cp, stream)
		return cp, AssignBlockIDs(cp)
	}
	return stream, int(max) + 1
}

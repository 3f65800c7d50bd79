package cache

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

// IDGroupBits sets the granularity of the shard-major ID layout: blocks
// are grouped by their low IDGroupBits block bits (LLC set-index bits —
// see sharing.PartitionIndex), and IDs are dense within each group. Any
// power-of-two set shard count up to 1<<IDGroupBits then owns a few
// contiguous ID ranges, so a walk over one shard's sets touches dense
// slices of every per-block array instead of entries scattered across
// the whole block population. The stream snapshots store IDs in this
// layout.
const IDGroupBits = 8

// AssignBlockIDs assigns each distinct block of stream a dense uint32 ID
// and returns the number of distinct blocks. IDs are shard-major: grouped
// by the low IDGroupBits block bits, first-touch order within a group
// (deterministic, like everything in the pipeline). It is the only
// per-stream hashing pass; every replay structure downstream indexes
// flat slices by the IDs it produces.
func AssignBlockIDs(stream []AccessInfo) int {
	idx := newBlockIndex()
	blocks := make([]uint64, 0, 1<<16) // distinct blocks, first-touch order
	var counts [1 << IDGroupBits]uint32
	for i := range stream {
		b := stream[i].Block
		s := idx.find(b)
		if s.ref == 0 {
			s = idx.add(b, len(blocks))
			blocks = append(blocks, b)
			counts[b&(1<<IDGroupBits-1)]++
		}
		stream[i].BlockID = s.ref - 1 // provisional first-touch ordinal
	}
	var next [1 << IDGroupBits]uint32 // group base, then allocation cursor
	sum := uint32(0)
	for g := range next {
		next[g] = sum
		sum += counts[g]
	}
	dense := make([]uint32, len(blocks))
	for ord, b := range blocks {
		g := b & (1<<IDGroupBits - 1)
		dense[ord] = next[g]
		next[g]++
	}
	for i := range stream {
		stream[i].BlockID = dense[stream[i].BlockID]
	}
	return len(blocks)
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

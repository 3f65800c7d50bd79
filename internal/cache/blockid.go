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
// are grouped by their low IDGroupBits block bits (the LLC set-index
// bits that also pick a replay shard — see sharing.PartitionIndex), and
// IDs are dense within each group. Any power-of-two shard count up to
// 1<<IDGroupBits then owns a few contiguous ID ranges, so a shard
// walk's per-block state (residency maps, next-use tables) touches
// dense array slices instead of entries scattered across the whole
// block population — first-touch numbering puts consecutive IDs in
// different shards almost surely, wasting 15/16 of every cache line the
// shard pulls. The sharded replay caps its shard count at 1<<IDGroupBits
// to match (see blockShards in package sharing).
const IDGroupBits = 8

// AssignBlockIDs assigns each distinct block of stream a dense uint32 ID
// and returns the number of distinct blocks. IDs are shard-major: grouped
// by the low IDGroupBits block bits, first-touch order within a group
// (deterministic, like everything in the pipeline). It is the only
// per-stream hashing pass; every replay structure downstream indexes
// flat slices by the IDs it produces.
func AssignBlockIDs(stream []AccessInfo) int {
	ids := make(map[uint64]uint32, 1<<16)
	blocks := make([]uint64, 0, 1<<16) // distinct blocks, first-touch order
	var counts [1 << IDGroupBits]uint32
	for i := range stream {
		b := stream[i].Block
		ord, ok := ids[b]
		if !ok {
			ord = uint32(len(blocks))
			ids[b] = ord
			blocks = append(blocks, b)
			counts[b&(1<<IDGroupBits-1)]++
		}
		stream[i].BlockID = ord // provisional first-touch ordinal
	}
	var next [1 << IDGroupBits]uint32 // group base, then allocation cursor
	sum := uint32(0)
	for g := range next {
		next[g] = sum
		sum += counts[g]
	}
	remap := make([]uint32, len(blocks))
	for ord, b := range blocks {
		g := b & (1<<IDGroupBits - 1)
		remap[ord] = next[g]
		next[g]++
	}
	for i := range stream {
		stream[i].BlockID = remap[stream[i].BlockID]
	}
	return len(blocks)
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

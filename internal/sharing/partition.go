package sharing

import (
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// PartitionIndex is the counting-sort partition of a stream's positions
// by LLC set shard: Order lists every stream position grouped by shard
// (stream order within a shard), and shard s owns Order[Offs[s]:Offs[s+1]].
// Shard membership is Block & (Shards-1), and set-index bits are block
// bits, so for any cache whose set count is a multiple of Shards each
// set belongs entirely to one shard. Cores is 1 + the highest Core in
// the stream (0 for an empty stream). The replay itself walks no
// partition; the bench module's partition probe measures this pass.
type PartitionIndex struct {
	Shards int
	Cores  int
	Order  []int32
	Offs   []int32
}

// Partitioner supplies the PartitionIndex for a shard count
// (sim.Stream.Partitioner builds one per call).
type Partitioner func(shards int) (*PartitionIndex, error)

// BuildPartition counting-sorts the stream positions by shard. shards
// must be a power of two. The pass also validates the stream Index
// invariant (contiguous Index values starting at 0) and records the
// stream's core count.
func BuildPartition(stream []cache.AccessInfo, shards int) (*PartitionIndex, error) {
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("sharing: partition shard count %d is not a power of two", shards)
	}
	mask := uint64(shards - 1)
	counts := make([]int32, shards)
	cores := 0
	for i := range stream {
		if int(stream[i].Index) != i {
			return nil, errIndex(stream, i)
		}
		counts[stream[i].Block&mask]++
		cores = max(cores, int(stream[i].Core)+1)
	}
	offs := make([]int32, shards+1)
	for s := 0; s < shards; s++ {
		offs[s+1] = offs[s] + counts[s]
	}
	order := make([]int32, len(stream))
	pos := make([]int32, shards)
	copy(pos, offs[:shards])
	for i := range stream {
		s := stream[i].Block & mask
		order[pos[s]] = int32(i)
		pos[s]++
	}
	mem.Hugepages(order)
	return &PartitionIndex{Shards: shards, Cores: cores, Order: order, Offs: offs}, nil
}

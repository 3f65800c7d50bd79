package cache

import (
	"testing"

	"sharellc/internal/rng"
	"sharellc/internal/workloads"
)

// mapAssignBlockIDs is AssignBlockIDs as it was with a Go map from block
// number to first-touch ordinal: the reference the flat blockIndex is
// compared against.
func mapAssignBlockIDs(stream []AccessInfo) int {
	ids := make(map[uint64]uint32, 1<<16)
	blocks := make([]uint64, 0, 1<<16) // distinct blocks, first-touch order
	var counts [1 << idGroupBits]uint32
	for i := range stream {
		b := stream[i].Block
		ord, ok := ids[b]
		if !ok {
			ord = uint32(len(blocks))
			ids[b] = ord
			blocks = append(blocks, b)
			counts[b&(1<<idGroupBits-1)]++
		}
		stream[i].BlockID = ord // provisional first-touch ordinal
	}
	var next [1 << idGroupBits]uint32 // group base, then allocation cursor
	sum := uint32(0)
	for g := range next {
		next[g] = sum
		sum += counts[g]
	}
	remap := make([]uint32, len(blocks))
	for ord, b := range blocks {
		g := b & (1<<idGroupBits - 1)
		remap[ord] = next[g]
		next[g]++
	}
	for i := range stream {
		stream[i].BlockID = remap[stream[i].BlockID]
	}
	return len(blocks)
}

// requireSameBlockIDs runs AssignBlockIDs and the map reference on copies
// of stream and fails on any difference in the count or an ID.
func requireSameBlockIDs(t *testing.T, name string, stream []AccessInfo) {
	t.Helper()
	got := append([]AccessInfo(nil), stream...)
	want := append([]AccessInfo(nil), stream...)
	n, wantN := AssignBlockIDs(got), mapAssignBlockIDs(want)
	if n != wantN {
		t.Fatalf("%s: %d distinct blocks, reference %d", name, n, wantN)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d (block %#x) got ID %d, reference %d", name, i, got[i].Block, got[i].BlockID, want[i].BlockID)
		}
	}
}

// TestAssignBlockIDsMatchesMap holds AssignBlockIDs to the map-keyed
// reference. The block pool is built to stress the flat index: block 0,
// the largest block number, runs of consecutive blocks, blocks that are
// equal modulo every table size the run passes through (multiples of
// 2^20), and blocks whose Fibonacci hashes share their top 12 bits and so
// collide in the initial table and stay neighbours after each growth. The
// same pool, fed to a blockIndex directly, must double the table at least
// three times and never fill it past half. Real streams, FilterStream
// output over suite models, are checked too.
func TestAssignBlockIDsMatchesMap(t *testing.T) {
	var pool []uint64
	seen := map[uint64]bool{}
	add := func(b uint64) {
		if !seen[b] {
			seen[b] = true
			pool = append(pool, b)
		}
	}
	add(0)
	add(1<<64 - 1)
	add(1 << 63)
	for i := uint64(1); i < 3000; i++ {
		add(1000 + i)
		add(i << 20)
		add(i<<44 | 7)
	}
	for b := uint64(1); len(pool) < 12000; b++ {
		if b*0x9E3779B97F4A7C15>>52 == 0x123 {
			add(b)
		}
	}

	idx := newBlockIndex()
	slots, growths := len(idx.slots), 0
	for ord, b := range pool {
		if s := idx.find(b); s.ref != 0 {
			t.Fatalf("block %#x found before it was added", b)
		}
		idx.add(b, ord)
		if len(idx.slots) != slots {
			slots = len(idx.slots)
			growths++
			for o, b := range pool[:ord+1] {
				if s := idx.find(b); s.ref != uint32(o)+1 {
					t.Fatalf("after growth to %d slots: block %#x has ref %d, want %d", slots, b, s.ref, o+1)
				}
			}
		}
		if 2*idx.n > len(idx.slots) {
			t.Fatalf("%d blocks in %d slots, over half full", idx.n, len(idx.slots))
		}
	}
	if growths < 3 {
		t.Fatalf("the index grew %d times, want at least 3", growths)
	}

	rnd := rng.New(21)
	stream := make([]AccessInfo, 400000)
	for i := range stream {
		// The reachable part of the pool widens over the stream, so that
		// new blocks keep arriving while earlier ones are revisited.
		stream[i] = AccessInfo{Block: pool[rnd.Intn(1+i*len(pool)/len(stream))], Index: int32(i)}
	}
	requireSameBlockIDs(t, "pool", stream)

	for _, name := range []string{"canneal", "streamcluster", "swaptions"} {
		m, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Scaled(0.05).Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		stream, _, err := FilterStream(r, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		requireSameBlockIDs(t, name, stream)
	}
}

package cache

import (
	"testing"

	"sharellc/internal/trace"
)

// batchStream builds a dense-ID random stream for the batch probe tests.
func batchStream(n int, blocks uint64, seed uint64) []AccessInfo {
	s := seed
	next := func() uint64 { // xorshift; no package deps
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	stream := make([]AccessInfo, n)
	for i := range stream {
		stream[i] = AccessInfo{
			Block: next() % blocks,
			Core:  uint8(next() % 4),
			Write: next()%5 == 0,
			Index: int64(i),
		}
	}
	AssignBlockIDs(stream)
	return stream
}

// TestReplayBatchMatchesAccessRef drives the same stream through
// AccessRef (the tag-scanning reference) and ReplayBatch in chunks of
// several sizes, comparing every access's outcome — hit flag, line
// index, eviction flag — and the final counters and contents.
func TestReplayBatchMatchesAccessRef(t *testing.T) {
	const ways = 2
	stream := batchStream(5000, 64, 99)
	numBlocks := 0
	for i := range stream {
		if int(stream[i].BlockID) >= numBlocks {
			numBlocks = int(stream[i].BlockID) + 1
		}
	}
	for _, chunk := range []int{1, 3, 16, 333, len(stream)} {
		ref, err := NewSetAssoc(8*trace.BlockSize, ways, NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSetAssoc(8*trace.BlockSize, ways, NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		active := make([]uint32, numBlocks)
		lineID := make([]uint32, got.Sets()*ways)
		out := make([]uint32, chunk)
		for lo := 0; lo < len(stream); lo += chunk {
			hi := lo + chunk
			if hi > len(stream) {
				hi = len(stream)
			}
			got.ReplayBatch(stream[lo:hi], active, lineID, out[:hi-lo])
			for k := lo; k < hi; k++ {
				want := ref.AccessRef(&stream[k])
				o := out[k-lo]
				li := uint32(want.Set*ways + want.Way)
				if (o&BatchHit != 0) != want.Hit || o&BatchLine != li || (o&BatchEvict != 0) != want.Evicted {
					t.Fatalf("chunk %d, access %d (block %d): outcome %#x, want hit=%v line=%d evict=%v",
						chunk, k, stream[k].Block, o, want.Hit, li, want.Evicted)
				}
			}
		}
		ra, rh, rf, re := ref.Stats()
		ga, gh, gf, ge := got.Stats()
		if ra != ga || rh != gh || rf != gf || re != ge {
			t.Fatalf("chunk %d: stats (%d %d %d %d) != reference (%d %d %d %d)", chunk, ga, gh, gf, ge, ra, rh, rf, re)
		}
		// Residency tables must describe exactly the cache contents.
		for id, li := range active {
			if li == 0 {
				continue
			}
			if int(lineID[li-1]) != id {
				t.Fatalf("chunk %d: active/lineID disagree for BlockID %d", chunk, id)
			}
		}
	}
}

// TestReplayBatchColsMatchesRecords runs the record-walking and
// column-walking probes over the same accesses and demands identical
// outcome words and counters.
func TestReplayBatchColsMatchesRecords(t *testing.T) {
	const ways = 4
	stream := batchStream(4096, 200, 7)
	numBlocks := 0
	blk := make([]uint64, len(stream))
	id := make([]uint32, len(stream))
	for i := range stream {
		blk[i] = stream[i].Block
		id[i] = stream[i].BlockID
		if int(stream[i].BlockID) >= numBlocks {
			numBlocks = int(stream[i].BlockID) + 1
		}
	}
	a, err := NewSetAssoc(32*trace.BlockSize, ways, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSetAssoc(32*trace.BlockSize, ways, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	activeA := make([]uint32, numBlocks)
	activeB := make([]uint32, numBlocks)
	lineA := make([]uint32, a.Sets()*ways)
	lineB := make([]uint32, b.Sets()*ways)
	outA := make([]uint32, len(stream))
	outB := make([]uint32, len(stream))
	a.ReplayBatch(stream, activeA, lineA, outA)
	b.ReplayBatchCols(blk, id, stream, activeB, lineB, outB)
	for k := range outA {
		if outA[k] != outB[k] {
			t.Fatalf("access %d: records outcome %#x != columns outcome %#x", k, outA[k], outB[k])
		}
	}
	aa, ah, af, ae := a.Stats()
	ba, bh, bf, be := b.Stats()
	if aa != ba || ah != bh || af != bf || ae != be {
		t.Fatalf("stats diverge: records (%d %d %d %d), columns (%d %d %d %d)", aa, ah, af, ae, ba, bh, bf, be)
	}
}

// BenchmarkBatchKernel isolates the probe phase — ReplayBatchCols over
// pre-decoded columns against an LRU cache in steady state — so changes
// to the probe loop have a stable, sweep-independent baseline.
func BenchmarkBatchKernel(b *testing.B) {
	const (
		ways      = 16
		sizeBytes = 1 << 20 // 1 MB: 1024 sets x 16 ways
		chunk     = 2048
	)
	stream := batchStream(1<<17, 4*(sizeBytes/trace.BlockSize), 12345)
	numBlocks := 0
	blk := make([]uint64, len(stream))
	id := make([]uint32, len(stream))
	for i := range stream {
		blk[i] = stream[i].Block
		id[i] = stream[i].BlockID
		if int(stream[i].BlockID) >= numBlocks {
			numBlocks = int(stream[i].BlockID) + 1
		}
	}
	c, err := NewSetAssoc(sizeBytes, ways, NewLRU())
	if err != nil {
		b.Fatal(err)
	}
	active := make([]uint32, numBlocks)
	lineID := make([]uint32, c.Sets()*ways)
	out := make([]uint32, chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(stream); lo += chunk {
			hi := lo + chunk
			if hi > len(stream) {
				hi = len(stream)
			}
			c.ReplayBatchCols(blk[lo:hi], id[lo:hi], stream[lo:hi], active, lineID, out[:hi-lo])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/access")
}

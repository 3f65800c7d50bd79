package cache

import (
	"slices"
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
			Index: int32(i),
		}
	}
	AssignBlockIDs(stream)
	return stream
}

// batchCols decodes stream's block and BlockID columns and returns them
// with the dense-ID space size.
func batchCols(stream []AccessInfo) (blk []uint64, id []uint32, numBlocks int) {
	blk = make([]uint64, len(stream))
	id = make([]uint32, len(stream))
	for i := range stream {
		blk[i] = stream[i].Block
		id[i] = stream[i].BlockID
		if int(stream[i].BlockID) >= numBlocks {
			numBlocks = int(stream[i].BlockID) + 1
		}
	}
	return blk, id, numBlocks
}

// probeAgrees drives stream through Access (the tag-scanning
// reference) and ReplayBatchCols in chunks of chunk accesses, comparing
// every access's outcome — hit flag, line index, eviction flag — then
// the final tag arrays and the residency tables against the contents.
func probeAgrees(t *testing.T, stream []AccessInfo, size, ways, chunk int) {
	t.Helper()
	blk, id, numBlocks := batchCols(stream)
	ref, err := NewSetAssoc(size, ways, &LRU{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSetAssoc(size, ways, &LRU{})
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
		got.ReplayBatchCols(blk[lo:hi], id[lo:hi], stream[lo:hi], active, lineID, out[:hi-lo])
		for k := lo; k < hi; k++ {
			want := ref.Access(stream[k])
			o := out[k-lo]
			li := uint32(want.Set*ways + want.Way)
			if (o&BatchHit != 0) != want.Hit || o&BatchLine != li || (o&BatchEvict != 0) != want.Evicted {
				t.Fatalf("chunk %d, access %d (block %d): outcome %#x, want hit=%v line=%d evict=%v",
					chunk, k, stream[k].Block, o, want.Hit, li, want.Evicted)
			}
		}
	}
	if !slices.Equal(got.lines, ref.lines) || !slices.Equal(got.valid, ref.valid) {
		t.Fatalf("chunk %d: final tag array differs from the reference", chunk)
	}
	// Residency tables must describe exactly the cache contents.
	tracked := 0
	for id, li := range active {
		if li == 0 {
			continue
		}
		tracked++
		if int(lineID[li-1]) != id {
			t.Fatalf("chunk %d: active/lineID disagree for BlockID %d", chunk, id)
		}
	}
	if n := resident(got); tracked != n {
		t.Fatalf("chunk %d: %d blocks tracked as resident, cache holds %d", chunk, tracked, n)
	}
}

// TestReplayBatchMatchesAccessRef holds the column probe to Access on
// a tiny 2-way cache in chunks of several sizes, down to one access.
func TestReplayBatchMatchesAccessRef(t *testing.T) {
	stream := batchStream(5000, 64, 99)
	for _, chunk := range []int{1, 3, 16, 333, len(stream)} {
		probeAgrees(t, stream, 8*trace.BlockSize, 2, chunk)
	}
}

// TestReplayBatchColsMatchesRecords holds the column probe, fed columns
// decoded from the records, to the record-walking Access on a 4-way
// cache in one whole-stream call.
func TestReplayBatchColsMatchesRecords(t *testing.T) {
	stream := batchStream(4096, 200, 7)
	probeAgrees(t, stream, 32*trace.BlockSize, 4, len(stream))
}

// BenchmarkReplayBatchColsLRU isolates the probe phase — ReplayBatchCols over
// pre-decoded columns against an LRU cache in steady state — so changes
// to the probe loop have a stable, sweep-independent baseline.
func BenchmarkReplayBatchColsLRU(b *testing.B) {
	const (
		ways      = 16
		sizeBytes = 1 << 20 // 1 MB: 1024 sets x 16 ways
		chunk     = 2048
	)
	stream := batchStream(1<<17, 4*(sizeBytes/trace.BlockSize), 12345)
	blk, id, numBlocks := batchCols(stream)
	c, err := NewSetAssoc(sizeBytes, ways, &LRU{})
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

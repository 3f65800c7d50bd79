package sharing

import (
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
)

// benchOutcomes probes stream once through an LRU cache and returns the
// recorded outcome words plus the decoded columns, so the advance micro
// can replay the advance phase alone, repeatedly, against a consistent
// outcome sequence (every line's first event is a fill, so iterating
// over the same outcomes leaves the tracker self-consistent).
func benchOutcomes(b *testing.B, stream []cache.AccessInfo, size, ways int) (out []uint32, bs *batchScratch, lines, numBlocks int) {
	b.Helper()
	llc, err := cache.NewSetAssoc(size, ways, policy.NewLRUPolicy())
	if err != nil {
		b.Fatal(err)
	}
	for i := range stream {
		if int(stream[i].BlockID) >= numBlocks {
			numBlocks = int(stream[i].BlockID) + 1
		}
	}
	sets, _ := cache.Geometry(size, ways)
	lines = sets * ways
	n := len(stream)
	bs = &batchScratch{
		blk:   make([]uint64, n),
		id:    make([]uint32, n),
		meta:  make([]uint8, n),
		ecw:   make([]uint64, batchSize),
		ehits: make([]uint64, batchSize),
		eid:   make([]uint32, batchSize),
	}
	decodeColumns(stream, bs.blk, bs.id, bs.meta)
	out = make([]uint32, n)
	active := make([]uint32, numBlocks)
	lineID := make([]uint32, lines)
	for lo := 0; lo < n; lo += batchSize {
		hi := min(lo+batchSize, n)
		llc.ReplayBatchCols(bs.blk[lo:hi], bs.id[lo:hi], stream[lo:hi], active, lineID, out[lo:hi])
	}
	return out, bs, lines, numBlocks
}

// BenchmarkAdvanceBatch measures the tracker advance phase alone —
// outcome words in, residency columns updated — in ns/access.
func BenchmarkAdvanceBatch(b *testing.B) {
	n := 1 << 17
	if testing.Short() {
		n = 1 << 14
	}
	stream := synthStream(n, 4000, 8, 21)
	size, ways := 64*cache.KB, 8
	out, bs, lines, numBlocks := benchOutcomes(b, stream, size, ways)

	b.Run("soa-counters", func(b *testing.B) {
		st := &replayState{
			res:        newResult("lru"),
			blockState: make([]uint8, numBlocks),
			cols:       &soaCols{id: make([]uint32, lines), hc: make([][2]uint64, lines)},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(stream); lo += batchSize {
				hi := min(lo+batchSize, len(stream))
				if err := advanceSoACounters(st, bs, out[lo:hi], lo); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/access")
	})
}

// BenchmarkTwoPhaseLane measures one two-phase lane (DRRIP: cross-set
// dueling state, so the policy pass and the sharded tracker replay
// split) end to end through ReplayMulti, pipelined through the log
// ring, in ns/access.
func BenchmarkTwoPhaseLane(b *testing.B) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	stream := synthStream(n, 20000, 8, 23)
	configs := []LLCConfig{
		{Size: 512 * cache.KB, Ways: 8, NewPolicy: catalogued(b, "drrip", 3)},
	}
	b.Run("soa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReplayMulti(stream, configs, Options{Shards: 4}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/access")
	})
}

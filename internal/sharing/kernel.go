package sharing

// Batched lane walks.
//
// Every engine lane (shardable or two-phase; see multi.go) runs the same
// phases over chunks of batchSize accesses:
//
//  1. decode — the gathered shard buffer is unpacked once, for every
//     lane that will walk it, into flat struct-of-arrays columns: block
//     numbers, dense BlockIDs and a one-byte core/store meta field;
//  2. probe — cache.ReplayBatchCols runs the tag/victim/policy half as
//     one tight loop, emitting a packed outcome word per access (for a
//     two-phase lane the stream-order policy pass does this and
//     compresses the words into a one-byte outcome log);
//  3. advance — the SoA residency tracker (tracker.go) consumes the
//     outcome words or log bytes, counting hits and misses in the same
//     loop and capturing evictions for a deferred close.
//
// Each phase is a short dependence-free-per-iteration loop over L1-
// resident chunk state (batchSize is sized so the chunk columns stay
// under the L2 slice the shard walk already budgets via blockBudget).
// Results are bit-identical to a stream-order walk of the lane alone:
// the probe performs exactly its cache transitions in the same order,
// and the advance performs exactly its tracker transitions (the
// differential tests hold every lane to byte equality with that walk,
// kept in reference_test.go).

import (
	"slices"

	"sharellc/internal/cache"
)

// batchSize is the accesses decoded per chunk. The chunk's own state —
// outcome words, block/ID/meta column slices — costs ~17 bytes per
// access, so 2 Ki keeps it near 32 KiB: resident in L1 across the
// probe→advance phases while leaving the L2 slice the shard walk
// budgets (blockBudget) to the lane's tracker, tag and policy state.
const batchSize = 2 << 10

// metaWrite flags a store in the decoded core/store meta byte; the low
// seven bits carry the core.
const metaWrite = 0x80

// batchScratch is one worker's batch state, grabbed alongside the
// gather buffer and reused across every shard the worker claims. The
// columns span the worker's current shard; out spans one chunk. The
// advance loops expand the packed meta byte to the core/write word
// inline (cwWord).
type batchScratch struct {
	blk  []uint64
	id   []uint32
	meta []uint8
	out  []uint32

	// Eviction-capture columns for the advance loops' deferred close
	// (see flushClosed): at most one entry per access of a chunk, so
	// each is batchSize long.
	ecw   []uint64
	ehits []uint64
	eid   []uint32
}

// decodeColumns is the decode phase: one pass over the gathered shard
// buffer unpacks the columns every lane's probe and advance loops
// consume, so the 32-byte records are streamed once per shard instead
// of once per lane per phase.
func decodeColumns(accs []cache.AccessInfo, blk []uint64, id []uint32, meta []uint8) {
	for k := range accs {
		a := &accs[k]
		blk[k] = a.Block
		id[k] = a.BlockID
		m := a.Core
		if a.Write {
			m |= metaWrite
		}
		meta[k] = m
	}
}

// runLaneBatch walks one sharded lane over the gathered shard buffer
// in chunks: probe, then advance. The lane's active/lineID tables
// persist across shards and workers (disjoint index ranges per shard).
func runLaneBatch(llc *cache.SetAssoc, l *lane, st *replayState, bs *batchScratch, accs []cache.AccessInfo, opt Options) error {
	for lo := 0; lo < len(accs); lo += batchSize {
		hi := lo + batchSize
		if hi > len(accs) {
			hi = len(accs)
		}
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return err
			}
		}
		out := bs.out[:hi-lo]
		llc.ReplayBatchCols(bs.blk[lo:hi], bs.id[lo:hi], accs[lo:hi], l.active, l.lineID, out)
		if err := advanceSoACounters(st, bs, out, lo); err != nil {
			return err
		}
	}
	return nil
}

// The outcome log's flag bits are the outcome word's hit/evict flags
// shifted down by 24 (see cache.LogByte); these compile-time pins keep
// the two encodings from drifting apart.
const (
	_ = uint8(cache.BatchHit>>24) - logHit
	_ = logHit - uint8(cache.BatchHit>>24)
	_ = uint8(cache.BatchEvict>>24) - logEvict
	_ = logEvict - uint8(cache.BatchEvict>>24)
)

// runPhaseLaneBatch is the tracker half of a two-phase lane over one
// shard of n accesses: each log chunk runs through the fused
// log-decode/advance loop. The log is partition-ordered (see
// runPolicyPassBatch), so the shard's bytes sit contiguously at segBase
// and each chunk's slice is a sequential read. Before each chunk the
// walk waits on the lane's pipeline ring for the policy pass to have
// passed the chunk's last stream position — order is ascending within a
// shard, so order[hi-1] is the chunk's watermark, and by then the pass
// has scattered every log byte of the chunk's segment range — which is
// what lets the tracker replay overlap the pass instead of barriering
// behind it.
func runPhaseLaneBatch(l *lane, st *replayState, bs *batchScratch, n int, order []int32, segBase int, opt Options) error {
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return err
			}
		}
		if err := l.ring.wait(int64(order[hi-1]) + 1); err != nil {
			return err
		}
		if err := advanceLogSoACounters(st, l, bs, l.log[segBase+lo:segBase+hi], lo); err != nil {
			return err
		}
	}
	return nil
}

// runPolicyPassBatch is phase one of a two-phase lane: the full-stream,
// stream-order walk of the lane's cache and policy — the only part of
// the replay that genuinely needs global order when the policy keeps
// cross-set state (dueling counters, shared RNG draws, global tables).
// Its working set is just tags plus policy state; the multi-megabyte
// tracker columns are untouched. The walk runs through
// cache.ReplayBatchCols chunk by chunk — the policy's monomorphic kernel
// when it has one, the generic loop otherwise — and a compress loop
// folds each chunk's outcome words into the one-byte-per-access log the
// tracker phase replays. The policy call sequence is exactly a
// stream-order replay's, so cross-set policy state evolves identically,
// and a hooked lane's hooks see the stream order they observe; its
// survivors close once the pass ends.
//
// The compress loop writes the log in partition order: each byte
// scatters to its block's shard segment (shard membership is the same
// Block & (Shards-1) mask the partition used, and the pass visits
// accesses in stream order, so per-segment write cursors starting at
// part.Offs reproduce exactly the partition's Order). The scatter is P
// sequential write streams for the pass — cheap — and buys every
// tracker shard a contiguous log read; a stream-ordered log would make
// each of P shards stream the whole log to gather 1/P of its bytes.
//
// The pass owns its block → line table outright (a pooled grab) instead
// of borrowing the lane's active array: under the pipeline ring the
// tracker shards replay concurrently with this walk, and their
// closeAliveSoA writes into the lane's active would race a borrowed
// table. Each completed chunk's stream position is published through
// the ring, which is the producer half of the overlap.
//
// passBlk/passID are the whole-stream block/BlockID columns, decoded
// once per replay (decodePassColumns) and shared read-only by every
// pass: a sweep runs one pass per two-phase lane, and letting each
// re-derive the columns from the 32-byte records would stream the whole
// record array once per lane just to recover 12 bytes per access.
func runPolicyPassBatch(stream []cache.AccessInfo, numBlocks int, part *PartitionIndex, passBlk []uint64, passID []uint32, l *lane, opt Options) error {
	llc, err := cache.NewSetAssoc(l.cfg.Size, l.cfg.Ways, l.inst)
	if err != nil {
		return err
	}
	ways := l.cfg.Ways
	setMask := uint64(l.sets - 1)
	var cur []int32
	if part != nil {
		cur = slices.Clone(part.Offs[:part.Shards])
	}
	var hits uint64
	log := l.log
	active := grab(&scratch.words, numBlocks, false)
	lineID := grab(&scratch.cols, l.sets*ways, false)
	out := grab(&scratch.cols, batchSize, false)
	for lo := 0; lo < len(stream); lo += batchSize {
		hi := lo + batchSize
		if hi > len(stream) {
			hi = len(stream)
		}
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return err
			}
		}
		o := out[:hi-lo]
		// The compress loop reads block numbers from the shared column,
		// so the 32-byte records are not re-touched just to recover set
		// and shard bits.
		blkCol := passBlk[lo:hi][:len(o)]
		llc.ReplayBatchCols(blkCol, passID[lo:hi], stream[lo:hi], active, lineID, o)
		if opt.CountsOnly {
			for _, w := range o {
				hits += uint64(w&cache.BatchHit) / uint64(cache.BatchHit)
			}
			continue
		}
		for k := range o {
			b := blkCol[k]
			sh := int(b) & (len(cur) - 1)
			p := cur[sh]
			cur[sh] = p + 1
			log[p] = cache.LogByte(o[k], uint32(b&setMask)*uint32(ways))
		}
		l.ring.publish(int64(hi))
	}
	if h, ok := l.inst.(*hooked); ok {
		h.endSurvivors()
	}
	if opt.CountsOnly {
		n := uint64(len(stream))
		l.result = &Result{Policy: l.inst.Name(), Accesses: n, Hits: hits, Misses: n - hits}
	}
	// The words pool's at-rest invariant is all-zero. The cols pool
	// carries no invariant, so lineID and out go back as they are.
	clear(active)
	put(&scratch.words, active)
	put(&scratch.cols, lineID)
	put(&scratch.cols, out)
	return nil
}

// decodePassColumns builds the whole-stream block/BlockID columns the
// policy passes share (see runPolicyPassBatch). The same walk checks the
// Index invariant and returns the stream's core count, which is all the
// checking a counts-only replay, walking no partition, gets.
func decodePassColumns(stream []cache.AccessInfo, blk []uint64, id []uint32) (cores int, err error) {
	for i := range stream {
		if int(stream[i].Index) != i {
			return 0, errIndex(stream, i)
		}
		blk[i] = stream[i].Block
		id[i] = stream[i].BlockID
		cores = max(cores, int(stream[i].Core)+1)
	}
	return cores, nil
}

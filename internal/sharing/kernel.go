package sharing

// Batched SoA replay kernel.
//
// The scalar kernel advances one access at a time through step (or
// stepLogged), interleaving decode, probe, policy and tracker work in
// one branchy body per access per lane. The batch kernel restructures
// the same walk into phases over chunks of batchSize accesses:
//
//  1. decode — the gathered shard buffer is unpacked once, for every
//     lane that will walk it, into flat struct-of-arrays columns: block
//     numbers, dense BlockIDs and a one-byte core/store meta field;
//  2. probe — cache.ReplayBatchCols (or ReplayBatch for the
//     stream-order policy pass) runs the tag/victim/policy half as one
//     tight loop, emitting a packed outcome word per access;
//  3. count — hit/miss counters fold out of the outcome words in a
//     branch-free reduction;
//  4. advance — the residency tracker consumes the outcome words,
//     touching only meta bytes and outcome words on the hit majority
//     path and the full record only on fills.
//
// Each phase is a short dependence-free-per-iteration loop over L1-
// resident chunk state (batchSize is sized so the chunk columns stay
// under the L2 slice the shard walk already budgets via blockBudget).
// Outputs are bit-identical to the scalar kernel: the probe performs
// exactly the scalar fast-path cache transitions in the same order, and
// the advance phase performs exactly step's tracker transitions (the
// differential tests in batch_test.go hold every experiment family to
// byte equality). Hooked lanes, lanes wider than the outcome encodings
// and the plain sequential Replay always run the scalar kernel — hooks
// observe stream order access by access.

import (
	"fmt"

	"sharellc/internal/cache"
)

// Kernel selects the replay inner-loop implementation. The zero value
// is the batched kernel, so existing callers get the fast path; scalar
// is the escape hatch for bisecting regressions in production (the
// -kernel flag on sharesim and sharesimd).
type Kernel uint8

const (
	// KernelBatch phase-splits the fused replay into batched SoA loops.
	KernelBatch Kernel = iota
	// KernelScalar replays one access at a time (the PR 4 paths).
	KernelScalar
)

// String returns the flag spelling of k.
func (k Kernel) String() string {
	switch k {
	case KernelBatch:
		return "batch"
	case KernelScalar:
		return "scalar"
	}
	return fmt.Sprintf("Kernel(%d)", uint8(k))
}

// ParseKernel resolves a -kernel flag value, rejecting unknown values
// with an error enumerating the valid ones.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "batch":
		return KernelBatch, nil
	case "scalar":
		return KernelScalar, nil
	}
	return 0, fmt.Errorf("sharing: unknown kernel %q (have batch, scalar)", s)
}

// batchSize is the accesses decoded per chunk. The chunk's own state —
// outcome words, block/ID/meta column slices — costs ~17 bytes per
// access, so 2 Ki keeps it near 32 KiB: resident in L1 across the
// probe→count→advance phases while leaving the L2 slice the shard walk
// budgets (blockBudget) to the lane's tracker, tag and policy state.
const batchSize = 2 << 10

// metaWrite flags a store in the decoded core/store meta byte; the low
// seven bits carry the core (Residency.addCore bounds cores at 128).
const metaWrite = 0x80

// batchScratch is one worker's batch-kernel state, grabbed alongside
// the gather buffer and reused across every shard the worker claims.
// The columns span the worker's current shard; out spans one chunk.
// Both tracker layouts consume the packed meta byte column; the SoA
// advance loops expand it to the core/write word inline (cwWord).
type batchScratch struct {
	blk  []uint64
	id   []uint32
	meta []uint8
	out  []uint32

	// Eviction-capture columns for the SoA advance loops' deferred
	// close (see flushClosed): at most one entry per access of a chunk,
	// so each is batchSize long. Only allocated for SoA workers.
	ecw   []uint64
	ehits []uint64
	eid   []uint32
}

// decodeColumns is the decode phase: one pass over the gathered shard
// buffer unpacks the columns every lane's probe and advance loops
// consume, so the 56-byte records are streamed once per shard instead
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

// countBatch is the count phase: Result's access/hit/miss counters
// fold out of a chunk's outcome words as a branch-free reduction.
func countBatch(res *Result, out []uint32) {
	var hits uint64
	for _, o := range out {
		hits += uint64(o>>30) & 1 // cache.BatchHit is bit 30
	}
	n := uint64(len(out))
	res.Accesses += n
	res.Hits += hits
	res.Misses += n - hits
}

// advanceBatch is the advance phase: the residency tracker replays a
// chunk's outcome words. The hit majority path touches only the
// outcome word, the block column (a consistency check against the
// tracked residency — the batch twin of the scalar kernel's
// tracker-vs-cache cross-checks), the meta byte and the residency
// line; fills read the full record.
func (st *replayState) advanceBatch(blk []uint64, meta []uint8, out []uint32, accs []cache.AccessInfo) error {
	lines := st.lines
	for k, o := range out {
		li := o & cache.BatchLine
		r := &lines[li]
		if o&cache.BatchHit != 0 {
			if r.Block != blk[k] {
				return fmt.Errorf("sharing: batch hit on line %d holding block %d, want block %d", li, r.Block, blk[k])
			}
			r.Hits++
			m := meta[k]
			r.coreMask[(m&^metaWrite)>>6] |= 1 << (m & 63)
			if m&metaWrite != 0 {
				r.written = true
			}
			continue
		}
		a := &accs[k]
		if o&cache.BatchEvict != 0 {
			if r.EvictIndex != -1 {
				return fmt.Errorf("sharing: batch evicted line %d holds no open residency", li)
			}
			st.closeRes(r, a.Index)
		}
		*r = Residency{
			Block:      blk[k],
			FillIndex:  a.Index,
			FillCore:   a.Core,
			FillPC:     a.PC,
			id:         a.BlockID,
			written:    a.Write,
			Predicted:  a.PredictedShared,
			EvictIndex: -1,
		}
		r.addCore(a.Core)
	}
	return nil
}

// runLaneBatch walks one shardable lane over the gathered shard buffer
// in chunks: probe, then the lane's bound advance variant (struct or
// SoA — see advanceFn). The lane's active/lineID tables persist across
// shards and workers exactly like the scalar path's active table
// (disjoint index ranges per shard).
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
		if err := l.advance(st, bs, out, accs[lo:hi], lo); err != nil {
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

// decodeLog rebuilds a chunk's outcome words from a two-phase lane's
// one-byte outcome log: the line index comes from the block column and
// the logged way, and the hit/evict flags shift from the log's bits
// 6–7 to the outcome word's bits 30–31. log is the chunk's own slice of
// the partition-ordered log (see runPolicyPassBatch), so the read is
// sequential — the batched pass scattered each byte to its shard
// segment at write time precisely so no consumer pays a gather here.
func decodeLog(log []uint8, blk []uint64, setMask uint64, ways int, out []uint32) {
	for k := range out {
		b := log[k]
		li := uint32(int(blk[k]&setMask)*ways) + uint32(b&logWayMask)
		out[k] = li | uint32(b&(logHit|logEvict))<<24
	}
}

// runPhaseLaneBatch is the tracker half of a two-phase lane over one
// shard, batched: each log chunk runs through the lane's bound
// advanceLog variant (the fused SoA loop, or the struct path's
// decode + count + advance, kept as the bisection reference). The log
// is partition-ordered (see runPolicyPassBatch), so the shard's bytes
// sit contiguously at segBase and each chunk's slice is a sequential
// read. When the lane carries a pipeline ring, the walk first waits
// for the policy pass to have passed the chunk's last stream position
// — order is ascending within a shard, so order[hi-1] is the chunk's
// watermark, and by then the pass has scattered every log byte of the
// chunk's segment range — which is what lets the tracker replay
// overlap the pass instead of barriering behind it.
func runPhaseLaneBatch(l *lane, st *replayState, bs *batchScratch, accs []cache.AccessInfo, order []int32, segBase int, opt Options) error {
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
		if l.ring != nil {
			if err := l.ring.wait(int64(order[hi-1]) + 1); err != nil {
				return err
			}
		}
		if err := l.advanceLog(st, l, bs, accs[lo:hi], l.log[segBase+lo:segBase+hi], lo); err != nil {
			return err
		}
	}
	return nil
}

// runPolicyPassBatch is the batched twin of runPolicyPass: the
// stream-order cache+policy walk runs through cache.ReplayBatch chunk
// by chunk, and a compress loop folds each chunk's outcome words into
// the one-byte-per-access log the tracker phase replays. The policy
// call sequence is exactly the scalar pass's, so cross-set policy
// state (dueling counters, RNG draws, global tables) evolves
// identically.
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
// Unlike the scalar pass, the batched pass owns its block → line table
// outright (a pooled grab) instead of borrowing the lane's phase-two
// active array: under the pipeline ring the tracker shards replay
// concurrently with this walk, and their closeAlive writes into the
// lane's active would race a borrowed table. Each completed chunk's
// stream position is published through the ring (when one is
// attached), which is the producer half of the overlap.
//
// passBlk/passID are the whole-stream block/BlockID columns, decoded
// once per replay (decodePassColumns) and shared read-only by every
// pass: a sweep runs one pass per two-phase lane, and letting each
// re-derive the columns from the 56-byte records would stream the whole
// record array once per lane just to recover 12 bytes per access. When
// nil (no lane's policy carries a batch kernel), the pass walks the
// records directly through the interface-based ReplayBatch.
func runPolicyPassBatch(stream []cache.AccessInfo, numBlocks int, part *PartitionIndex, passBlk []uint64, passID []uint32, l *lane, opt Options) error {
	llc, err := cache.NewSetAssoc(l.cfg.Size, l.cfg.Ways, l.inst)
	if err != nil {
		return err
	}
	ways := l.cfg.Ways
	setMask := uint64(l.sets - 1)
	cur := make([]int32, part.Shards)
	copy(cur, part.Offs[:part.Shards])
	log := l.log
	active := grab(&scratch.words, numBlocks, false)
	lineID := grab(&scratch.cols, l.sets*ways, false)
	out := grab(&scratch.cols, batchSize, false)
	// When the policy carries a monomorphic kernel, the pass probes the
	// shared columns through ReplayBatchCols, so the specialized loop
	// (not the interface walk of ReplayBatch) runs the stream-order pass
	// too — two-phase policies are the lanes a sweep spends most of its
	// time in. The call sequence into cross-set policy state (RNG draws,
	// dueling updates, SHCT training) is identical either way.
	useCols := passBlk != nil && llc.HasBatchKernel()
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
		chunk := stream[lo:hi]
		// The compress loop reads block numbers from the shared column
		// when the kernel path runs, so the 56-byte records are not
		// re-touched just to recover set and shard bits.
		if useCols {
			blkCol := passBlk[lo:hi][:len(o)]
			llc.ReplayBatchCols(blkCol, passID[lo:hi], chunk, active, lineID, o)
			for k := range o {
				b := blkCol[k]
				sh := int(b) & (len(cur) - 1)
				p := cur[sh]
				cur[sh] = p + 1
				log[p] = cache.LogByte(o[k], uint32(b&setMask)*uint32(ways))
			}
		} else {
			llc.ReplayBatch(chunk, active, lineID, o)
			for k := range o {
				b := chunk[k].Block
				sh := int(b) & (len(cur) - 1)
				p := cur[sh]
				cur[sh] = p + 1
				log[p] = cache.LogByte(o[k], uint32(b&setMask)*uint32(ways))
			}
		}
		if l.ring != nil {
			l.ring.publish(int64(hi))
		}
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
// two-phase policy passes share (see runPolicyPassBatch).
func decodePassColumns(stream []cache.AccessInfo, blk []uint64, id []uint32) {
	for i := range stream {
		blk[i] = stream[i].Block
		id[i] = stream[i].BlockID
	}
}

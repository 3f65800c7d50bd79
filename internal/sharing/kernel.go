package sharing

// The policy pass.
//
// Every lane runs the same phases over chunks of batchSize accesses:
//
//  1. decode — once per replay, decodePassColumns unpacks the stream into
//     flat struct-of-arrays columns every lane reads: block numbers,
//     dense BlockIDs and, for a tracked replay, a one-byte core/store
//     meta field;
//  2. probe — cache.ReplayBatchCols runs the lookup/victim/policy half
//     as one tight loop over the lane's active/lineID tables (the cache
//     keeps no tags of its own), emitting a packed outcome word per
//     access;
//  3. census — the tier's consumer folds the chunk's outcome words
//     before the next chunk: the SoA residency tracker (tracker.go),
//     the shared-hit line words (streak.go) or a hit count.
//
// Each phase is a short dependence-free-per-iteration loop over L1-
// resident chunk state. Results are bit-identical to a stream-order walk
// of the lane alone: the probe performs exactly its cache transitions in
// the same order, and the census exactly its tracker transitions (the
// differential tests hold every lane to byte equality with that walk,
// kept in reference_test.go).

import (
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

// batchSize is the accesses probed per chunk. The chunk's own state —
// outcome words, column slices, eviction captures — stays near 32 KiB,
// resident in L1 across the probe→census phases while leaving L2 to the
// lane's tracker, residency and policy state.
const batchSize = 2 << 10

// metaWrite flags a store in the decoded core/store meta byte; the low
// seven bits carry the core.
const metaWrite = 0x80

// passCols are the whole-stream columns of one replay, decoded once
// (decodePassColumns) and read by every lane's pass: re-deriving them
// from the 32-byte records would stream the whole record array once per
// lane to recover 13 bytes per access. meta is set for a tracked replay
// only, streak for a shared-hit replay only.
type passCols struct {
	blk    []uint64
	id     []uint32
	meta   []uint8
	streak []uint32
}

// batchScratch is one tracked pass's view of the stream's id and meta
// columns plus its eviction-capture columns for the advance loop's
// deferred close (see flushClosed): at most one entry per access of a
// chunk, so each capture column is batchSize long. The advance loop
// expands the packed meta byte to the core/write word inline (cwWord).
type batchScratch struct {
	id   []uint32
	meta []uint8

	ecw   []uint64
	ehits []uint64
	eid   []uint32
}

// runPolicyPassBatch is one lane's whole replay: the full-stream,
// stream-order walk of the lane's cache and policy through
// cache.ReplayBatchCols chunk by chunk — the policy's monomorphic kernel
// when it has one, the generic loop otherwise — with the tier's census
// consuming each chunk's outcome words (see the file comment). A hooked
// lane's survivors close once the pass ends. The lane's Result is left
// in l.result, and the pass's arrays, the cache's and the policy's
// (SetAssoc.Release) go back to the mem pool; a pass that returns an
// error abandons them instead.
func runPolicyPassBatch(stream []cache.AccessInfo, numBlocks int, cols passCols, l *lane, opt Options) error {
	llc, err := cache.NewSetAssoc(l.cfg.Size, l.cfg.Ways, l.inst)
	if err != nil {
		return err
	}
	lines := l.sets * l.cfg.Ways
	var hits uint64
	var sc sharedCounts
	var st *replayState
	var bs *batchScratch
	switch opt.Tier {
	case Tracked:
		st = &replayState{res: newResult(l.inst.Name()), cols: grabSoA(lines),
			blockState: mem.Grab[uint8](numBlocks)}
		bs = &batchScratch{id: cols.id, meta: cols.meta,
			ecw:   mem.Grab[uint64](batchSize),
			ehits: mem.Grab[uint64](batchSize),
			eid:   mem.Grab[uint32](batchSize)}
	case SharedHitsOnly:
		sc.lines = mem.Grab[uint64](lines)
	}
	active := mem.Grab[uint32](numBlocks)
	lineID := mem.Grab[uint32](lines)
	out := mem.Grab[uint32](batchSize)
	for lo := 0; lo < len(stream); lo += batchSize {
		hi := min(lo+batchSize, len(stream))
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return err
			}
		}
		o := out[:hi-lo]
		llc.ReplayBatchCols(cols.blk[lo:hi], cols.id[lo:hi], stream[lo:hi], active, lineID, o)
		switch opt.Tier {
		case Tracked:
			if err := advanceSoACounters(st, bs, o, lo); err != nil {
				return err
			}
		case SharedHitsOnly:
			sc.advance(o, cols.streak[lo:hi])
		case CountsOnly:
			for _, w := range o {
				hits += uint64(w&cache.BatchHit) / uint64(cache.BatchHit)
			}
		}
	}
	if h, ok := l.inst.(*hooked); ok {
		h.endSurvivors()
	}
	switch n := uint64(len(stream)); opt.Tier {
	case Tracked:
		st.closeAliveSoA(bs)
		census(st.res, st.blockState)
		l.result = st.res
		mem.Release(st.cols.id)
		mem.Release(st.cols.hc)
		mem.Release(st.blockState)
		mem.Release(bs.ecw)
		mem.Release(bs.ehits)
		mem.Release(bs.eid)
	case SharedHitsOnly:
		l.result = sc.result(l.inst.Name(), n)
		mem.Release(sc.lines)
	case CountsOnly:
		l.result = &Result{Policy: l.inst.Name(), Accesses: n, Hits: hits, Misses: n - hits}
	}
	llc.Release()
	mem.Release(active)
	mem.Release(lineID)
	mem.Release(out)
	return nil
}

// decodePassColumns fills the replay's pass columns (see passCols), the
// meta column only when it is set. The same walk checks the Index
// invariant and returns the stream's core count, which is all the
// checking a replay gets.
func decodePassColumns(stream []cache.AccessInfo, cols passCols) (cores int, err error) {
	for i := range stream {
		a := &stream[i]
		if int(a.Index) != i {
			return 0, errIndex(stream, i)
		}
		cols.blk[i] = a.Block
		cols.id[i] = a.BlockID
		cores = max(cores, int(a.Core)+1)
		if cols.meta != nil {
			m := a.Core
			if a.Write {
				m |= metaWrite
			}
			cols.meta[i] = m
		}
	}
	return cores, nil
}

// errIndex reports a break of the stream Index invariant at position i.
func errIndex(stream []cache.AccessInfo, i int) error {
	return fmt.Errorf("sharing: stream index %d at position %d; use cache.FilterStream ordering", stream[i].Index, i)
}

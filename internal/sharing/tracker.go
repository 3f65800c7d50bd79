package sharing

// Struct-of-arrays residency tracker.
//
// A slab of 64-byte Residency structs — what a hooked lane's
// OnResidencyEnd receives — would load and store a full cache line of
// residency state on every hit, the majority outcome of every replay,
// to bump one counter and OR one core bit. The counters need none of
// the rest, so the tracker splits the slab into columns and each phase
// touches only the bytes it needs:
//
//   - hc [][2]uint64 — the paired hit counter (hc[li][0]) and packed
//     core/write word (hc[li][1]): bit c marks core c (c ≤ 62), bit 63
//     marks "a store touched this residency". One packed word replaces
//     Residency's two-word core mask plus written bool, and pairing it
//     with the hit counter keeps the whole hit path inside one 16-byte
//     aligned pair — hc[li][0] += inc; hc[li][1] |= cwWord(meta[k]) —
//     so the randomly-indexed advance touches one cache line per hit
//     where separate hits/cw columns touched two. The word doubles as
//     the liveness flag: cw == 0 ⟺ no open residency (a fill always
//     sets the filler's core bit).
//   - id []uint32 — dense BlockID, read only when a residency closes.
//
// The tracker feeds only the counters (a hooked lane's residencies are
// tracked beside its policy, in the hooked wrapper), so the columns hold
// exactly what the counters need. A tracked lane's policy pass runs
// advanceSoACounters over each chunk's outcome words.
//
// The census lives in the line: a residency's cores, store bit and hits
// are all the degree, read-only/read-write and shared-hit counters need,
// and its BlockID is all the block census needs, so the pass that evicts
// a line can close its residency on the spot — there is no per-block or
// per-access state to carry between chunks beyond the lines themselves
// and the one blockState byte per block.
//
// The packed word caps usable cores at 63 (indices 0..62): ReplayMulti
// rejects a stream with wider cores (see replayLanes), and the
// differential tests hold the columns to byte-equal Results against the
// struct-Residency reference walk in reference_test.go.

import (
	"fmt"
	"math/bits"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
)

const (
	// cwWritten is the store bit of the packed core/write word; bits
	// 0..62 carry cores.
	cwWritten = uint64(1) << 63
	// soaMaxCores is the widest core count the packed word encodes.
	soaMaxCores = 63
)

// soaCols is one lane's SoA residency tracker: parallel columns indexed
// by line (set*ways+way).
type soaCols struct {
	id []uint32
	hc [][2]uint64
}

// grabSoA builds the column set for lines line slots from the pool,
// zeroed: cw == 0 means "no open residency", exactly what a fresh
// replay needs.
func grabSoA(lines int) *soaCols {
	return &soaCols{id: mem.Grab[uint32](lines), hc: mem.Grab[[2]uint64](lines)}
}

// cwWord expands one packed meta byte (decodePassColumns' core/store
// encoding) into the tracker's core/write word: bit core set, bit 63
// carrying the store flag. The expansion is a handful of ALU ops per
// access, which beats materializing a pre-shifted uint64 column at
// decode time: that column would cost 8 bytes per access of decode
// write plus a re-streamed read per lane, where the meta byte column is
// an eighth the traffic.
func cwWord(m uint8) uint64 {
	return uint64(1)<<(m&^metaWrite) | uint64(m&metaWrite)<<56
}

// closeLineSoA finalizes the residency open in line li, alive at stream
// end, and folds it into the counters. The advance loop doesn't call
// this per eviction — it captures and defers (see flushClosed); only
// closeAliveSoA's end-of-pass retirement closes straight off the live
// columns.
func (st *replayState) closeLineSoA(li uint32) {
	t := st.cols
	res := st.res
	cw := t.hc[li][1]
	deg := bits.OnesCount64(cw &^ cwWritten)
	shared := deg >= 2
	id := t.id[li]
	if shared {
		st.blockState[id] = blockShared
	} else if st.blockState[id] == blockUnseen {
		st.blockState[id] = blockPrivate
	}
	h := t.hc[li][0]
	res.Residencies++
	res.DegreeResidencies[deg]++
	res.DegreeHits[deg] += h
	if shared {
		res.SharedResidencies++
		res.SharedHits += h
		if cw&cwWritten != 0 {
			res.RWSharedResidencies++
			res.RWSharedHits += h
		} else {
			res.ROSharedResidencies++
			res.ROSharedHits += h
		}
	} else {
		res.PrivateHits += h
	}
}

// flushClosed folds a chunk's captured evictions into the counters —
// closeLineSoA over the batchScratch capture columns instead of the
// live tracker state. The SoA advance loop does not close residencies
// inline: the evict branch snapshots the dying line's columns into
// bs.e* (everything closeLineSoA would read — the refill may overwrite
// the line before the close is folded) and the chunk ends with one
// tight pass here. Deferring is safe because a close touches nothing
// the rest of the chunk reads: res counters are sums and the blockState
// census is a monotonic unseen < private < shared lattice read only at
// replay end. What it buys is the loop shape: the per-eviction
// blockState byte is a random load over a multi-megabyte array, and
// issuing those from a call-free loop lets the out-of-order window
// overlap several misses instead of serializing each behind a function
// call in the advance loop — which also loses its only call and keeps
// its column bases in registers.
func (st *replayState) flushClosed(bs *batchScratch, n int) {
	res := st.res
	bstate := st.blockState
	ecw := bs.ecw[:n]
	ehits := bs.ehits[:n]
	eid := bs.eid[:n]
	for k := range ecw {
		cw := ecw[k]
		deg := bits.OnesCount64(cw &^ cwWritten)
		shared := deg >= 2
		id := eid[k]
		if shared {
			bstate[id] = blockShared
		} else if bstate[id] == blockUnseen {
			bstate[id] = blockPrivate
		}
		h := ehits[k]
		res.Residencies++
		res.DegreeResidencies[deg]++
		res.DegreeHits[deg] += h
		if shared {
			res.SharedResidencies++
			res.SharedHits += h
			if cw&cwWritten != 0 {
				res.RWSharedResidencies++
				res.RWSharedHits += h
			} else {
				res.ROSharedResidencies++
				res.ROSharedHits += h
			}
		} else {
			res.PrivateHits += h
		}
	}
}

// closeAliveSoA closes the residencies alive at stream end: survivors
// are the lines with a nonzero core/write word. The counters are order-independent sums, so the survivors close in
// line order.
func (st *replayState) closeAliveSoA() {
	hc := st.cols.hc
	for li := range hc {
		if hc[li][1] != 0 {
			st.closeLineSoA(uint32(li))
		}
	}
}

// advanceSoACounters is the census phase of a tracked lane: it replays
// one chunk's probe outcome words against the tracker. out spans the
// chunk; lo is the chunk's offset into the stream columns (bs). The hit
// path is branch-free column arithmetic — a counter bump and a bitset
// OR inside one 16-byte hc pair, so one randomly-indexed cache line per
// hit — and the fill path writes the two columns. Hit/miss counting is fused into the same
// loop (the hit branch already distinguishes the outcomes), so the
// separate count phase disappears; evictions capture the dying line
// into bs.e* and fold after the loop (flushClosed), which keeps the
// loop free of calls. The access records are never read: the decoded
// columns carry everything the counters need.
func advanceSoACounters(st *replayState, bs *batchScratch, out []uint32, lo int) error {
	t := st.cols
	hc, ids := t.hc, t.id
	// Reslice the chunk columns to the outcome count so the bounds
	// checks on the per-access loads fold away.
	metac := bs.meta[lo:][:len(out)]
	idc := bs.id[lo:][:len(out)]
	var h uint64
	ne := 0
	for k, o := range out {
		li := o & cache.BatchLine
		p := &hc[li]
		w := cwWord(metac[k])
		if o&cache.BatchHit != 0 {
			p[0]++
			p[1] |= w
			h++
			continue
		}
		if o&cache.BatchEvict != 0 {
			if p[1] == 0 {
				return fmt.Errorf("sharing: batch evicted line %d holds no open residency", li)
			}
			bs.ecw[ne] = p[1]
			bs.ehits[ne] = p[0]
			bs.eid[ne] = ids[li]
			ne++
		}
		ids[li] = idc[k]
		*p = [2]uint64{0, w}
	}
	st.flushClosed(bs, ne)
	st.flushCounts(uint64(len(out)), h)
	return nil
}

package predictor

import (
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/coherence"
	"sharellc/internal/mem"
)

// defaultCoherenceWindow is the recency window (in LLC accesses) within
// which a past coherence event keeps a block predicted shared.
const defaultCoherenceWindow = 1 << 16

// Coherence is the coherence-assisted fill-time sharing predictor: the
// probe of the paper's closing conjecture that "other architectural ...
// features that have strong correlations with active sharing phases"
// are needed. It watches the MESI directory events induced by the LLC
// reference stream and predicts a fill shared when the block either has
// multiple directory sharers right now or had a cross-core coherence
// event (downgrade, invalidation, upgrade) within a recency window —
// i.e. it keys on *active sharing*, not on stale address/PC history.
//
// It requires no residency training at all: the directory is its state,
// and the directory sees every access whatever the cache does. Its
// prediction at stream position i is therefore a function of the stream
// up to i alone, so NewCoherence computes every position's prediction in
// one directory pass, and Predict reads that column at a.Index, as
// oracle.hinted reads its hints. A Coherence serves only the stream it
// was built from. The column comes from the mem pool; Release (which
// the F7/A2 scored lane forwards when its replay ends) hands it back.
type Coherence struct {
	col []bool
}

// NewCoherence builds the predictor over stream, which must carry
// contiguous Index values from 0 (cache.FilterStream order). window <= 0
// selects defaultCoherenceWindow. The directory is keyed by the stream's
// dense BlockIDs: numBlocks > 0 asserts they lie in [0, numBlocks)
// (sim.Stream.NumBlocks), and 0 scans for them (cache.EnsureBlockIDs
// numbers a copy of a stream that carries none).
func NewCoherence(stream []cache.AccessInfo, numBlocks int, window int64) (*Coherence, error) {
	if window < 0 {
		return nil, fmt.Errorf("predictor: negative coherence window %d", window)
	}
	w := uint64(window)
	if w == 0 {
		w = defaultCoherenceWindow
	}
	if numBlocks <= 0 {
		stream, numBlocks = cache.EnsureBlockIDs(stream)
	}
	dir := coherence.NewDirectory(numBlocks, coherence.MaxCores)
	// last holds each block's most recent cross-core event, as its
	// position plus one (0: none yet).
	last := mem.Grab[uint32](numBlocks)
	col := mem.Grab[bool](len(stream))
	for i := range stream {
		a := &stream[i]
		var event bool
		if a.Write {
			event = dir.Store(a.Core, a.BlockID)
		} else {
			event = dir.Load(a.Core, a.BlockID)
		}
		if event {
			last[a.BlockID] = uint32(i) + 1
		}
		if dir.Sharers(a.BlockID) >= 2 {
			col[i] = true
		} else if e := last[a.BlockID]; e != 0 {
			col[i] = uint64(i)+1-uint64(e) <= w
		}
	}
	dir.Release()
	mem.Release(last)
	return &Coherence{col: col}, nil
}

// Name implements Predictor.
func (p *Coherence) Name() string { return "coherence" }

// Predict implements Predictor.
func (p *Coherence) Predict(a cache.AccessInfo) bool { return p.col[a.Index] }

// Train implements Predictor. The coherence predictor learns from the
// directory, not from residency outcomes.
func (p *Coherence) Train(uint64, uint64, bool) {}

// Release implements cache.Releaser: it hands the column back to the
// mem pool. The predictor must not predict afterwards.
func (p *Coherence) Release() {
	mem.Release(p.col)
	p.col = nil
}

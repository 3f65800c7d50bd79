package predictor

import (
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/coherence"
)

// DefaultCoherenceWindow is the recency window (in LLC accesses) within
// which a past coherence event keeps a block predicted shared.
const DefaultCoherenceWindow = 1 << 16

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
// oracle.Hinted reads its hints. A Coherence serves only the stream it
// was built from.
type Coherence struct {
	col []bool
}

// NewCoherence builds the predictor over stream, which must carry
// contiguous Index values from 0 (cache.FilterStream order). window <= 0
// selects DefaultCoherenceWindow. The directory is keyed by the stream's
// dense BlockIDs: numBlocks > 0 asserts they lie in [0, numBlocks)
// (sim.Stream.NumBlocks), and 0 scans for them (cache.EnsureBlockIDs
// numbers a copy of a stream that carries none).
func NewCoherence(stream []cache.AccessInfo, numBlocks int, window int64) (*Coherence, error) {
	if window < 0 {
		return nil, fmt.Errorf("predictor: negative coherence window %d", window)
	}
	w := uint64(window)
	if w == 0 {
		w = DefaultCoherenceWindow
	}
	if numBlocks <= 0 {
		stream, numBlocks = cache.EnsureBlockIDs(stream)
	}
	dir := coherence.NewDirectory(numBlocks)
	col := make([]bool, len(stream))
	for i := range stream {
		a := &stream[i]
		if a.Write {
			dir.Store(a.Core, a.BlockID)
		} else {
			dir.Load(a.Core, a.BlockID)
		}
		if _, n := dir.StateOf(a.BlockID); n >= 2 {
			col[i] = true
		} else if last, ok := dir.LastSharingEvent(a.BlockID); ok {
			col[i] = dir.Clock()-last <= w
		}
	}
	return &Coherence{col: col}, nil
}

// Name implements Predictor.
func (p *Coherence) Name() string { return "coherence" }

// Predict implements Predictor.
func (p *Coherence) Predict(a cache.AccessInfo) bool { return p.col[a.Index] }

// Train implements Predictor. The coherence predictor learns from the
// directory, not from residency outcomes.
func (p *Coherence) Train(uint64, uint64, bool) {}

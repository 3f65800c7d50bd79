package predictor

import (
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/coherence"
)

// AccessObserver is implemented by predictors that need to see every LLC
// access (not only fills). An F7 lane feeds them through
// sharing.Hooks.OnAccess (HooksFor); a Driven lane calls Observe itself,
// before anything else happens on the access.
type AccessObserver interface {
	Observe(a cache.AccessInfo)
}

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
// It requires no residency training at all; the directory is its state.
type Coherence struct {
	dir    *coherence.Directory
	window uint64
}

// NewCoherence builds the predictor. window <= 0 selects
// DefaultCoherenceWindow.
func NewCoherence(window int64) (*Coherence, error) {
	if window < 0 {
		return nil, fmt.Errorf("predictor: negative coherence window %d", window)
	}
	w := uint64(window)
	if w == 0 {
		w = DefaultCoherenceWindow
	}
	return &Coherence{dir: coherence.NewDirectory(), window: w}, nil
}

// Name implements Predictor.
func (p *Coherence) Name() string { return "coherence" }

// Observe implements AccessObserver: every LLC access drives the
// directory.
func (p *Coherence) Observe(a cache.AccessInfo) {
	if a.Write {
		p.dir.Store(a.Core, a.Block)
	} else {
		p.dir.Load(a.Core, a.Block)
	}
}

// Predict implements Predictor.
func (p *Coherence) Predict(a cache.AccessInfo) bool {
	if _, n := p.dir.StateOf(a.Block); n >= 2 {
		return true
	}
	if last, ok := p.dir.LastSharingEvent(a.Block); ok {
		return p.dir.Clock()-last <= p.window
	}
	return false
}

// Train implements Predictor. The coherence predictor learns from the
// directory, not from residency outcomes.
func (p *Coherence) Train(uint64, uint64, bool) {}

// Stats exposes the underlying directory traffic for characterization.
func (p *Coherence) Stats() coherence.Stats { return p.dir.Stats() }

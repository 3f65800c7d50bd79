package predictor

import (
	"context"
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
	"sharellc/internal/sharing"
)

// PredStats accumulates fill-time prediction outcomes against residency
// ground truth (positive class = shared).
type PredStats struct {
	TP, FP, TN, FN uint64
}

// add scores one residency: its fill-time verdict against its outcome.
func (p *PredStats) add(predicted, shared bool) {
	switch {
	case predicted && shared:
		p.TP++
	case predicted:
		p.FP++
	case shared:
		p.FN++
	default:
		p.TN++
	}
}

// Total returns the number of classified residencies.
func (p PredStats) Total() uint64 { return p.TP + p.FP + p.TN + p.FN }

// Accuracy returns (TP+TN)/total, or 0 when empty.
func (p PredStats) Accuracy() float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return float64(p.TP+p.TN) / float64(t)
}

// Precision returns TP/(TP+FP), or 0 when no positive predictions.
func (p PredStats) Precision() float64 {
	if p.TP+p.FP == 0 {
		return 0
	}
	return float64(p.TP) / float64(p.TP+p.FP)
}

// Recall returns TP/(TP+FN) — the fraction of truly shared residencies
// the predictor caught — or 0 when no positives exist.
func (p PredStats) Recall() float64 {
	if p.TP+p.FN == 0 {
		return 0
	}
	return float64(p.TP) / float64(p.TP+p.FN)
}

// MaxScored bounds the predictors of one scored lane: each owns one bit
// of a line's verdict word.
const MaxScored = 16

// EvaluateMulti measures every predictor's fill-time accuracy without
// letting it influence replacement: it replays one Scored lane of preds
// over newBase alone under ctx, counts only (the matrices come from the
// lane, not the replay's Result), and returns its confusion matrices.
func EvaluateMulti(ctx context.Context, stream []cache.AccessInfo, llcSize, llcWays int, newBase func() cache.Policy, preds []Predictor) ([]PredStats, error) {
	if len(preds) > MaxScored {
		return nil, fmt.Errorf("predictor: %d predictors in one scored lane, at most %d", len(preds), MaxScored)
	}
	lane := NewScored(newBase(), preds)
	cfg := sharing.LLCConfig{Size: llcSize, Ways: llcWays, NewPolicy: func() cache.Policy { return lane }}
	if _, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{cfg}, sharing.Options{Ctx: ctx, Tier: sharing.CountsOnly}); err != nil {
		return nil, fmt.Errorf("predictor: fused evaluation: %w", err)
	}
	return lane.Stats(), nil
}

// Scored is the policy of an F7/A2 lane: a base policy that runs
// untouched and carries every predictor, each predicting at each fill,
// training when the residency ends, and scored against that residency's
// outcome, residencies still open at stream end included. No predictor
// steers, so every predictor sees the same residencies, and one lane
// carries them all.
//
// Per miss every predictor predicts before any trains on the residency
// the miss ends: in Victim when the set is full, else in Fill. The base
// is embedded as a cache.Policy, which hides its NewBatchKernel: the
// predictors' tables cross sets, so the lane's policy pass calls Hit,
// Victim and Fill in stream order.
type Scored struct {
	cache.Policy
	preds []Predictor
	stats []PredStats

	ways  int
	lines []scoredLine // one per (set, way)

	// verdicts holds the current miss's predictions, bit k from
	// preds[k]; predicted reports that Victim already made them.
	verdicts  uint16
	predicted bool
}

// scoredLine is one line's open residency: what training needs, the
// verdicts made at its fill, and whether a residency is open there.
type scoredLine struct {
	drivenLine
	verdicts uint16
	open     bool
}

// NewScored returns the scored lane policy of preds over base. It panics
// past MaxScored predictors, which one verdict word cannot hold.
func NewScored(base cache.Policy, preds []Predictor) *Scored {
	if len(preds) > MaxScored {
		panic(fmt.Sprintf("predictor: %d predictors in one scored lane, at most %d", len(preds), MaxScored))
	}
	return &Scored{Policy: base, preds: preds, stats: make([]PredStats, len(preds))}
}

// Stats returns one confusion matrix per predictor, in predictor order;
// they are complete once the lane's replay has succeeded.
func (s *Scored) Stats() []PredStats { return s.stats }

// Attach implements cache.Policy.
func (s *Scored) Attach(sets, ways int) {
	s.Policy.Attach(sets, ways)
	s.ways = ways
	s.lines = mem.Grab[scoredLine](sets * ways)
}

// Hit implements cache.Policy: mark the residency shared when a core
// other than its filler hits it.
func (s *Scored) Hit(set, way int, a *cache.AccessInfo) {
	if ln := &s.lines[set*s.ways+way]; a.Core != ln.fillCore {
		ln.shared = true
	}
	s.Policy.Hit(set, way, a)
}

// predict collects every predictor's verdict on the current miss.
func (s *Scored) predict(a *cache.AccessInfo) {
	s.verdicts = 0
	for k, p := range s.preds {
		if p.Predict(*a) {
			s.verdicts |= 1 << k
		}
	}
	s.predicted = true
}

// Victim implements cache.Policy: predict the miss, choose the victim,
// then score and train every predictor on the residency it ends.
func (s *Scored) Victim(set int, a *cache.AccessInfo) int {
	s.predict(a)
	v := s.Policy.Victim(set, a)
	ln := &s.lines[set*s.ways+v]
	s.score(ln)
	for _, p := range s.preds {
		p.Train(ln.block, ln.fillPC, ln.shared)
	}
	return v
}

// Fill implements cache.Policy: open the new residency with the miss's
// verdicts.
func (s *Scored) Fill(set, way int, a *cache.AccessInfo) {
	if !s.predicted {
		s.predict(a)
	}
	s.predicted = false
	s.Policy.Fill(set, way, a)
	s.lines[set*s.ways+way] = scoredLine{
		drivenLine: drivenLine{block: a.Block, fillPC: a.PC, fillCore: a.Core},
		verdicts:   s.verdicts,
		open:       true,
	}
}

// score folds a closing residency into every predictor's matrix.
func (s *Scored) score(ln *scoredLine) {
	for k := range s.stats {
		s.stats[k].add(ln.verdicts>>k&1 == 1, ln.shared)
	}
}

// Release implements cache.Releaser: it scores the residencies still
// open at stream end, which completes the matrices Stats returns, then
// hands the lines, the base's state and the state of every predictor
// that is a cache.Releaser (the coherence column) back to the mem pool.
// Nothing reads a predictor after the replay, so those residencies are
// not trained on.
func (s *Scored) Release() {
	for i := range s.lines {
		if s.lines[i].open {
			s.score(&s.lines[i])
		}
	}
	mem.Release(s.lines)
	s.lines = nil
	if r, ok := s.Policy.(cache.Releaser); ok {
		r.Release()
	}
	for _, p := range s.preds {
		if r, ok := p.(cache.Releaser); ok {
			r.Release()
		}
	}
}

// HooksFor wires a predictor into a hooked replay lane: its prediction is
// the lane's fill-time hint, and each residency end trains it. No
// experiment runs hooked lanes: F7/A2 score predictors in a Scored lane
// and F8 drives each from a Driven lane.
func HooksFor(pred Predictor) sharing.Hooks {
	return sharing.Hooks{
		PredictShared: pred.Predict,
		OnResidencyEnd: func(r sharing.Residency) {
			pred.Train(r.Block, r.FillPC, r.Shared())
		},
	}
}

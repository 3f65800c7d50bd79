package predictor

import (
	"context"
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/sharing"
)

// EvaluateMulti measures every predictor's fill-time accuracy without
// letting it influence replacement (experiment F7), in one fused replay
// over the stream: one lane per predictor, each with its own fresh base
// policy (newBase is called once per lane) and its own hook set. The
// base policy runs untouched while the predictor predicts at each fill
// and trains at each residency end; each result's Pred field holds that
// predictor's confusion matrix. Results are returned in predictor order.
func EvaluateMulti(ctx context.Context, stream []cache.AccessInfo, llcSize, llcWays int, newBase func() cache.Policy, preds []Predictor) ([]*sharing.Result, error) {
	configs := make([]sharing.LLCConfig, len(preds))
	for i, pred := range preds {
		configs[i] = sharing.LLCConfig{Size: llcSize, Ways: llcWays, NewPolicy: newBase, Hooks: HooksFor(pred)}
	}
	results, err := sharing.ReplayMulti(stream, configs, sharing.Options{Ctx: ctx})
	if err != nil {
		return nil, fmt.Errorf("predictor: fused evaluation: %w", err)
	}
	return results, nil
}

// HooksFor wires a predictor into a replay lane: fill-time prediction,
// residency training, and — for predictors that watch every access (the
// coherence-assisted predictor) — the per-access observation feed. Hooks
// pin the lane to the sequential walk; they are how F7 scores a predictor
// (the Pred confusion matrix) without letting it steer replacement. A
// predictor that steers protection (F8) is a Driven lane instead.
func HooksFor(pred Predictor) sharing.Hooks {
	h := sharing.Hooks{
		PredictShared: pred.Predict,
		OnResidencyEnd: func(r sharing.Residency) {
			pred.Train(r.Block, r.FillPC, r.Shared())
		},
	}
	if o, ok := pred.(AccessObserver); ok {
		h.OnAccess = o.Observe
	}
	return h
}

package predictor

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/sharing"
)

// hookedScores is the scored lane's reference: one hooked sequential lane
// per predictor over a fresh base. Its PredictShared hook records each
// miss's verdict by stream index; its OnResidencyEnd hook scores the
// verdict recorded at the residency's fill, then trains the predictor.
func hookedScores(t *testing.T, stream []cache.AccessInfo, ways int, base func() cache.Policy, preds []Predictor) []PredStats {
	t.Helper()
	scores := make([]PredStats, len(preds))
	configs := make([]sharing.LLCConfig, len(preds))
	for k, pred := range preds {
		verdict := make([]bool, len(stream))
		ps := &scores[k]
		configs[k] = sharing.LLCConfig{Size: drivenSize, Ways: ways, NewPolicy: base, Hooks: sharing.Hooks{
			PredictShared: func(a cache.AccessInfo) bool {
				verdict[a.Index] = pred.Predict(a)
				return verdict[a.Index]
			},
			OnResidencyEnd: func(r sharing.Residency) {
				switch predicted, shared := verdict[r.FillIndex], r.Shared(); {
				case predicted && shared:
					ps.TP++
				case predicted:
					ps.FP++
				case shared:
					ps.FN++
				default:
					ps.TN++
				}
				pred.Train(r.Block, r.FillPC, r.Shared())
			},
		}}
	}
	if _, err := sharing.ReplayMulti(stream, configs, sharing.Options{}); err != nil {
		t.Fatal(err)
	}
	return scores
}

// TestScoredLaneMatchesHooked holds the F7/A2 lane — one lane scoring all
// six predictors — to six hooked reference lanes (hookedScores) over LRU
// and DRRIP at 8, 16, 64 and 128 ways, at several stream prefixes. Every
// confusion matrix must equal its reference, and EvaluateMulti's must
// equal the lane's. The lane must leave its base untouched (its Result
// equals the bare base lane's, and counts only, the base's counts with
// the same matrices), bind no batch kernel, and call NewPolicy exactly
// once: EvaluateMulti reads the matrices off that one instance.
func TestScoredLaneMatchesHooked(t *testing.T) {
	full := drivenStream(24000, 3000, 5)
	n := len(full)
	drrip, err := policy.ByName("drrip", 3)
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]func() cache.Policy{"lru": lru, "drrip": drrip}
	prefixes := []int{n / 7, n / 3, n / 2, n}
	if testing.Short() {
		prefixes = []int{n / 3, n} // the race step's budget
	}
	for _, m := range prefixes {
		stream := slices.Clone(full[:m])
		cache.AnnotateNextUse(stream)
		for _, ways := range []int{8, 16, 64, 128} {
			for name, base := range bases {
				at := fmt.Sprintf("%s, %d ways, len %d", name, ways, m)
				calls := 0
				lane := NewScored(base(), predictors(t, stream))
				cfg := sharing.LLCConfig{Size: drivenSize, Ways: ways, NewPolicy: func() cache.Policy {
					calls++
					return lane
				}}
				got, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{cfg}, sharing.Options{})
				if err != nil {
					t.Fatal(err)
				}
				scores := lane.Stats()
				want := hookedScores(t, stream, ways, base, predictors(t, stream))
				for k, p := range predictors(t, stream) {
					if scores[k] != want[k] {
						t.Errorf("%s: %s scored %+v, hooked %+v", at, p.Name(), scores[k], want[k])
					}
					if want[k].Total() != got[0].Residencies {
						t.Errorf("%s: %s: hooked reference scored %d of %d residencies", at, p.Name(), want[k].Total(), got[0].Residencies)
					}
				}
				eval, err := EvaluateMulti(context.Background(), stream, drivenSize, ways, base, predictors(t, stream))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(eval, scores) {
					t.Errorf("%s: EvaluateMulti scored %+v, the lane %+v", at, eval, scores)
				}
				bare, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{{Size: drivenSize, Ways: ways, NewPolicy: base}}, sharing.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[0], bare[0]) {
					t.Errorf("%s: scored lane differs from the bare base\nscored: %+v\nbare:   %+v", at, got[0], bare[0])
				}
				countsLane := NewScored(base(), predictors(t, stream))
				counted, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{{Size: drivenSize, Ways: ways, NewPolicy: func() cache.Policy { return countsLane }}},
					sharing.Options{Tier: sharing.CountsOnly})
				if err != nil {
					t.Fatal(err)
				}
				counts := sharing.Result{Policy: bare[0].Policy, Accesses: bare[0].Accesses, Hits: bare[0].Hits, Misses: bare[0].Misses}
				if !reflect.DeepEqual(*counted[0], counts) || !slices.Equal(countsLane.Stats(), scores) {
					t.Errorf("%s: counts-only scored lane %+v, want the bare base's counts %+v and the lane's matrices", at, *counted[0], counts)
				}
				if calls != 1 {
					t.Errorf("%s: NewPolicy called %d times, want 1", at, calls)
				}
				if drivenKernel(t, NewScored(base(), nil), ways) {
					t.Errorf("%s: scored lane binds its base's batch kernel", at)
				}
			}
		}
	}
}

// TestScoredLaneAllocSteady is TestDrivenLaneAllocSteady's gate with an
// F7 lane in the mix — bare LRU, DRRIP and a lane scoring all six
// predictors over LRU: once the mem pool is warm, a replay allocates
// only per-lane bookkeeping, orders of magnitude below one
// object per access.
func TestScoredLaneAllocSteady(t *testing.T) {
	stream := drivenStream(60000, 3000, 7)
	drrip, err := policy.ByName("drrip", 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		// A scored lane releases its predictors' state (the coherence
		// column) when its replay ends, so each run builds its own.
		preds := predictors(t, stream)
		lane := NewScored(lru(), preds)
		configs := []sharing.LLCConfig{
			{Size: drivenSize, Ways: 8, NewPolicy: lru},
			{Size: drivenSize, Ways: 8, NewPolicy: drrip},
			{Size: drivenSize, Ways: 8, NewPolicy: func() cache.Policy { return lane }},
		}
		if _, err := sharing.ReplayMulti(stream, configs, sharing.Options{}); err != nil {
			t.Fatal(err)
		}
		if lane.Stats()[0].Total() == 0 {
			t.Fatal("scored lane scored no residency")
		}
	}
	run() // warm the mem pool
	if allocs := testing.AllocsPerRun(3, run); allocs > 400 {
		t.Errorf("replay allocated %.0f objects over 60k accesses x 3 lanes; a hot loop is allocating (budget 400)", allocs)
	}
}

// TestEvaluateMultiPredictorLimit pins the scored lane's capacity: a
// line's verdict word holds 16 predictors, and a 17th is an error, not a
// verdict lost to overflow.
func TestEvaluateMultiPredictorLimit(t *testing.T) {
	stream := drivenStream(2000, 300, 3)
	for _, k := range []int{16, 17} {
		preds := make([]Predictor, k)
		for i := range preds {
			preds[i] = Always{}
		}
		scores, err := EvaluateMulti(context.Background(), stream, drivenSize, 8, lru, preds)
		if k > MaxScored {
			if err == nil {
				t.Errorf("%d predictors accepted", k)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if last := scores[k-1]; last.TP+last.FP == 0 || last.TN+last.FN != 0 {
			t.Errorf("predictor %d of %d scored %+v; want every residency predicted shared", k, k, last)
		}
	}
}

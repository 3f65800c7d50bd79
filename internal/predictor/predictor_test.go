package predictor

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
	"sharellc/internal/sharing"
	"sharellc/internal/trace"
)

const (
	size = 16 * trace.BlockSize
	ways = 4
)

func lru() cache.Policy { return policy.NewLRUPolicy() }

// evaluate is the F7 lane for one predictor: a one-predictor
// EvaluateMulti over LRU.
func evaluate(t *testing.T, stream []cache.AccessInfo, pred Predictor) PredStats {
	t.Helper()
	scores, err := EvaluateMulti(context.Background(), stream, size, ways, lru, []Predictor{pred})
	if err != nil {
		t.Fatal(err)
	}
	return scores[0]
}

// drive is the F8 lane for one predictor: a one-config ReplayMulti whose
// policy is pred driving the full-strength protector over LRU. It
// returns the protector's counters with the result.
func drive(t *testing.T, stream []cache.AccessInfo, pred Predictor) (*sharing.Result, core.Stats) {
	t.Helper()
	var d *core.Lane
	cfg := sharing.LLCConfig{Size: size, Ways: ways, NewPolicy: func() cache.Policy {
		d = drivenLane(lru(), core.Options{Strength: core.Full}, pred)
		return d
	}}
	res, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{cfg}, sharing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res[0], d.Stats()
}

// counted counts the predictions and trainings of the predictor it wraps.
type counted struct {
	Predictor
	predicts, trains int
}

func (c *counted) Predict(a cache.AccessInfo) bool {
	c.predicts++
	return c.Predictor.Predict(a)
}

func (c *counted) Train(block, fillPC uint64, shared bool) {
	c.trains++
	c.Predictor.Train(block, fillPC, shared)
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{{TableBits: 0}, {TableBits: 30}}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, c)
		}
	}
	if _, err := NewAddress(Config{}); err == nil {
		t.Error("NewAddress accepted zero config")
	}
	if _, err := NewPC(Config{}); err == nil {
		t.Error("NewPC accepted zero config")
	}
}

func TestAddressLearnsPerBlockHistory(t *testing.T) {
	p, err := NewAddress(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharedBlock, privateBlock := uint64(100), uint64(200)
	// Train a few residencies each.
	for i := 0; i < 4; i++ {
		p.Train(sharedBlock, 0, true)
		p.Train(privateBlock, 0, false)
	}
	if !p.Predict(cache.AccessInfo{Block: sharedBlock}) {
		t.Error("address predictor missed a consistently shared block")
	}
	if p.Predict(cache.AccessInfo{Block: privateBlock}) {
		t.Error("address predictor flagged a consistently private block")
	}
}

func TestPCLearnsPerSiteHistory(t *testing.T) {
	p, err := NewPC(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharedPC, privatePC := uint64(0x1000), uint64(0x2000)
	for i := 0; i < 4; i++ {
		p.Train(uint64(i), sharedPC, true)
		p.Train(uint64(100+i), privatePC, false)
	}
	if !p.Predict(cache.AccessInfo{PC: sharedPC, Block: 999}) {
		t.Error("PC predictor missed a sharing fill site")
	}
	if p.Predict(cache.AccessInfo{PC: privatePC, Block: 998}) {
		t.Error("PC predictor flagged a private fill site")
	}
}

func TestSingleSharedOutcomeFlipsEntry(t *testing.T) {
	// Counters initialize at threshold-1, so one shared outcome predicts
	// shared and one private outcome swings it back below threshold.
	p, err := NewAddress(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := uint64(7)
	if p.Predict(cache.AccessInfo{Block: b}) {
		t.Error("cold entry predicts shared")
	}
	p.Train(b, 0, true)
	if !p.Predict(cache.AccessInfo{Block: b}) {
		t.Error("one shared outcome did not flip the entry")
	}
	p.Train(b, 0, false)
	if p.Predict(cache.AccessInfo{Block: b}) {
		t.Error("one private outcome did not swing the entry back")
	}
}

func TestCounterSaturation(t *testing.T) {
	cfg := Config{TableBits: 8}
	p, err := NewAddress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := uint64(9)
	for i := 0; i < 100; i++ {
		p.Train(b, 0, true) // saturate up
	}
	// Two private outcomes from saturation (3) → 1 < threshold flips it;
	// hysteresis means exactly max-threshold+1 decrements are needed.
	p.Train(b, 0, false)
	if !p.Predict(cache.AccessInfo{Block: b}) {
		t.Error("single private outcome flipped a saturated entry")
	}
	p.Train(b, 0, false)
	p.Train(b, 0, false)
	if p.Predict(cache.AccessInfo{Block: b}) {
		t.Error("saturated entry never unlearned")
	}
}

func TestAlwaysNever(t *testing.T) {
	if !(Always{}).Predict(cache.AccessInfo{}) {
		t.Error("Always predicted false")
	}
	if (Never{}).Predict(cache.AccessInfo{}) {
		t.Error("Never predicted true")
	}
	(Always{}).Train(0, 0, true) // must not panic
	(Never{}).Train(0, 0, true)
	if (Always{}).Name() != "always" || (Never{}).Name() != "never" {
		t.Error("bracket predictor names wrong")
	}
}

func TestTableIndexBounded(t *testing.T) {
	tb, err := newTable(Config{TableBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	f := func(key uint64) bool { return tb.index(key) < 64 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mixedStream: half the blocks are consistently shared every residency,
// half consistently private. History predictors should do well here.
func mixedStream(n int) []cache.AccessInfo {
	rnd := rng.New(21)
	stream := make([]cache.AccessInfo, 0, n)
	for len(stream) < n {
		b := rnd.Uint64n(48)
		core0 := uint8(rnd.Intn(4))
		stream = append(stream, cache.AccessInfo{Core: core0, Block: b, PC: 0x400 + b*4, Index: int32(len(stream))})
		if b%2 == 0 { // even blocks get a cross-core touch soon after
			stream = append(stream, cache.AccessInfo{Core: (core0 + 1) % 4, Block: b, PC: 0x400 + b*4, Index: int32(len(stream))})
		}
	}
	cache.AnnotateNextUse(stream)
	return stream
}

func TestEvaluateOnConsistentWorkload(t *testing.T) {
	stream := mixedStream(20000)
	for _, mk := range []func() (Predictor, error){
		func() (Predictor, error) { return NewAddress(DefaultConfig()) },
		func() (Predictor, error) { return NewPC(DefaultConfig()) },
	} {
		pred, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		ps := evaluate(t, stream, pred)
		if ps.Total() == 0 {
			t.Fatalf("%s: no residencies classified", pred.Name())
		}
		if acc := ps.Accuracy(); acc < 0.7 {
			t.Errorf("%s: accuracy %.2f on a history-consistent workload, want > 0.7", pred.Name(), acc)
		}
	}
}

func TestEvaluateDoesNotPerturbReplacement(t *testing.T) {
	stream := mixedStream(5000)
	bare, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{{Size: size, Ways: ways, NewPolicy: lru}}, sharing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewAddress(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lane := sharing.LLCConfig{Size: size, Ways: ways, NewPolicy: func() cache.Policy {
		return NewScored(lru(), []Predictor{pred})
	}}
	eval, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{lane}, sharing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare[0], eval[0]) {
		t.Errorf("evaluation changed the replay:\nbare:   %+v\nscored: %+v", bare[0], eval[0])
	}
}

// TestPredictionAccounting scores a predictor that bets on even blocks.
// Block 2 (even) becomes shared → TP. Block 4 (even) stays private → FP.
// Block 1 (odd) becomes shared → FN. Block 3 (odd) stays private → TN.
// None is evicted, so each is scored as an open residency at stream end.
func TestPredictionAccounting(t *testing.T) {
	pairs := [][2]uint64{
		{0, 2}, {1, 2},
		{0, 4},
		{0, 1}, {1, 1},
		{0, 3},
	}
	stream := make([]cache.AccessInfo, len(pairs))
	for i, p := range pairs {
		stream[i] = cache.AccessInfo{Core: uint8(p[0]), Block: p[1], Index: int32(i)}
	}
	ps := evaluate(t, stream, evenBlocks{})
	if ps != (PredStats{TP: 1, FP: 1, TN: 1, FN: 1}) {
		t.Errorf("PredStats = %+v, want 1 each", ps)
	}
	if got := ps.Accuracy(); got != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", got)
	}
	if got := ps.Precision(); got != 0.5 {
		t.Errorf("Precision = %v, want 0.5", got)
	}
	if got := ps.Recall(); got != 0.5 {
		t.Errorf("Recall = %v, want 0.5", got)
	}
}

// evenBlocks predicts a fill shared iff its block is even.
type evenBlocks struct{ Never }

func (evenBlocks) Predict(a cache.AccessInfo) bool { return a.Block%2 == 0 }

func TestPredStatsEmpty(t *testing.T) {
	var p PredStats
	if p.Accuracy() != 0 || p.Precision() != 0 || p.Recall() != 0 {
		t.Error("empty PredStats returned non-zero rates")
	}
}

func TestDriveProtectsAndTrains(t *testing.T) {
	stream := mixedStream(20000)
	addr, err := NewAddress(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pred := &counted{Predictor: addr}
	res, stats := drive(t, stream, pred)
	if stats.ProtectedFills == 0 {
		t.Error("driven lane never protected a fill")
	}
	if uint64(pred.predicts) != res.Misses || pred.trains == 0 {
		t.Errorf("driven lane made %d predictions for %d misses and %d trainings", pred.predicts, res.Misses, pred.trains)
	}
}

func TestPredictorsDeterministic(t *testing.T) {
	stream := mixedStream(8000)
	run := func() uint64 {
		pred, err := NewPC(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, _ := drive(t, stream, pred)
		return res.Misses
	}
	if run() != run() {
		t.Error("predictor-driven replay not deterministic")
	}
}

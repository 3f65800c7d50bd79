package predictor

import (
	"context"
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
func evaluate(t *testing.T, stream []cache.AccessInfo, pred Predictor) *sharing.Result {
	t.Helper()
	res, err := EvaluateMulti(context.Background(), stream, size, ways, lru, []Predictor{pred})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// drive is the F8 lane for one predictor: a one-config ReplayMulti whose
// policy is the full-strength protector over LRU and whose hooks come
// from HooksFor. It returns the protector's counters with the result.
func drive(t *testing.T, stream []cache.AccessInfo, pred Predictor) (*sharing.Result, core.Stats) {
	t.Helper()
	var prot *core.Protector
	cfg := sharing.LLCConfig{Size: size, Ways: ways, Hooks: HooksFor(pred),
		NewPolicy: func() cache.Policy {
			prot = core.NewProtectorOpts(lru(), core.Options{Strength: core.Full})
			return prot
		}}
	res, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{cfg}, sharing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res[0], prot.Stats()
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{{TableBits: 0}, {TableBits: 30}}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
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
		res := evaluate(t, stream, pred)
		if res.Pred.Total() == 0 {
			t.Fatalf("%s: no residencies classified", pred.Name())
		}
		if acc := res.Pred.Accuracy(); acc < 0.7 {
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
	eval := evaluate(t, stream, pred)
	if bare[0].Misses != eval.Misses {
		t.Errorf("evaluation changed miss count: %d vs %d", bare[0].Misses, eval.Misses)
	}
}

func TestDriveProtectsAndTrains(t *testing.T) {
	stream := mixedStream(20000)
	pred, err := NewAddress(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, stats := drive(t, stream, pred)
	if stats.ProtectedFills == 0 {
		t.Error("driven lane never protected a fill")
	}
	if res.Pred.Total() == 0 {
		t.Error("driven lane recorded no prediction outcomes")
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

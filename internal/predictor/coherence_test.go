package predictor

import (
	"testing"

	"sharellc/internal/cache"
)

func TestCoherenceConstruction(t *testing.T) {
	if _, err := NewCoherence(-1); err == nil {
		t.Error("negative window accepted")
	}
	p, err := NewCoherence(0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "coherence" {
		t.Errorf("Name = %q", p.Name())
	}
	p.Train(0, 0, true) // no-op, must not panic
}

func TestCoherencePredictsActiveSharing(t *testing.T) {
	p, err := NewCoherence(100)
	if err != nil {
		t.Fatal(err)
	}
	// Block 1 read by two cores: directory has 2 sharers → shared.
	p.Observe(cache.AccessInfo{Core: 0, Block: 1})
	p.Observe(cache.AccessInfo{Core: 1, Block: 1})
	if !p.Predict(cache.AccessInfo{Block: 1}) {
		t.Error("actively shared block predicted private")
	}
	// Block 2 touched by one core only → private.
	p.Observe(cache.AccessInfo{Core: 0, Block: 2})
	p.Observe(cache.AccessInfo{Core: 0, Block: 2, Write: true})
	if p.Predict(cache.AccessInfo{Block: 2}) {
		t.Error("single-core block predicted shared")
	}
	// Unknown block → private.
	if p.Predict(cache.AccessInfo{Block: 999}) {
		t.Error("unknown block predicted shared")
	}
}

func TestCoherenceRecencyWindow(t *testing.T) {
	p, err := NewCoherence(10)
	if err != nil {
		t.Fatal(err)
	}
	// Create a sharing event on block 1 and then collapse it back to a
	// single owner via a remote store.
	p.Observe(cache.AccessInfo{Core: 0, Block: 1})
	p.Observe(cache.AccessInfo{Core: 1, Block: 1, Write: true}) // invalidation event
	if !p.Predict(cache.AccessInfo{Block: 1}) {
		t.Fatal("block with fresh coherence event predicted private")
	}
	// Age the event out of the window with unrelated traffic.
	for i := 0; i < 20; i++ {
		p.Observe(cache.AccessInfo{Core: 0, Block: uint64(100 + i)})
	}
	if p.Predict(cache.AccessInfo{Block: 1}) {
		t.Error("stale coherence event still predicting shared")
	}
}

func TestCoherenceBeatsHistoryOnPhasedSharing(t *testing.T) {
	// A phased workload: blocks are shared in their first life, then go
	// permanently private. Address history keeps predicting shared (it
	// trained on the shared phase); the coherence predictor tracks the
	// transition. This is the paper's "other architectural features"
	// conjecture made concrete.
	var stream []cache.AccessInfo
	add := func(core uint8, block uint64, write bool) {
		stream = append(stream, cache.AccessInfo{
			Core: core, Block: block, Write: write,
			PC: 0x400 + block*4, Index: int32(len(stream)),
		})
	}
	const nBlocks = 64
	// Alternating sharing phases: blocks flip between actively shared
	// and strictly private every few residencies, the regime the paper's
	// conclusion describes. History predictors lag every flip by their
	// training hysteresis; the directory notices within a window.
	for cycle := 0; cycle < 8; cycle++ {
		for round := 0; round < 3; round++ { // shared phase
			for b := uint64(0); b < nBlocks; b++ {
				add(0, b, false)
				add(1, b, false)
			}
		}
		for round := 0; round < 3; round++ { // private phase
			for b := uint64(0); b < nBlocks; b++ {
				add(2, b, round == 0)
			}
		}
	}
	cache.AnnotateNextUse(stream)

	eval := func(pred Predictor) float64 {
		res := evaluate(t, stream, pred)
		return res.Pred.Accuracy()
	}
	addr, err := NewAddress(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	coh, err := NewCoherence(64)
	if err != nil {
		t.Fatal(err)
	}
	accAddr := eval(addr)
	accCoh := eval(coh)
	if accCoh <= accAddr {
		t.Errorf("coherence accuracy %.3f <= address-history accuracy %.3f on phased sharing", accCoh, accAddr)
	}
}

func TestCoherenceDrivesReplacement(t *testing.T) {
	stream := mixedStream(10000)
	p, err := NewCoherence(0)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := drive(t, stream, p)
	if res.Pred.Total() == 0 {
		t.Error("no residencies classified")
	}
	if p.Stats().Loads == 0 {
		t.Error("directory saw no traffic; OnAccess hook not wired")
	}
}

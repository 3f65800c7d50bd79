package predictor

import (
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/coherence"
)

// observedCoherence is the reference for the coherence column: the
// predictor fed as an observer, its directory driven by every access in
// stream order and queried at the access it has just seen, with its own
// event clock and last-event map. It numbers blocks itself, in
// first-touch order, so it shares no id with the stream's BlockIDs.
type observedCoherence struct {
	dir    *coherence.Directory
	ids    map[uint64]uint32
	window uint64
	clock  uint64            // accesses observed
	last   map[uint32]uint64 // block id → clock of its last cross-core event
}

// newObservedCoherence returns the observer for stream.
func newObservedCoherence(stream []cache.AccessInfo, window uint64) *observedCoherence {
	ids := map[uint64]uint32{}
	for _, a := range stream {
		if _, ok := ids[a.Block]; !ok {
			ids[a.Block] = uint32(len(ids))
		}
	}
	return &observedCoherence{dir: coherence.NewDirectory(len(ids), 8), ids: ids, window: window, last: map[uint32]uint64{}}
}

func (p *observedCoherence) observe(a cache.AccessInfo) {
	p.clock++
	id := p.ids[a.Block]
	var event bool
	if a.Write {
		event = p.dir.Store(a.Core, id)
	} else {
		event = p.dir.Load(a.Core, id)
	}
	if event {
		p.last[id] = p.clock
	}
}

func (p *observedCoherence) predict(a cache.AccessInfo) bool {
	id := p.ids[a.Block]
	if p.dir.Sharers(id) >= 2 {
		return true
	}
	if last, ok := p.last[id]; ok {
		return p.clock-last <= p.window
	}
	return false
}

// acc is one access of a hand-built coherence stream.
type acc struct {
	core  uint8
	block uint64
	write bool
}

// coherenceStream builds an indexed stream from accs.
func coherenceStream(accs ...acc) []cache.AccessInfo {
	stream := make([]cache.AccessInfo, len(accs))
	for i, a := range accs {
		stream[i] = cache.AccessInfo{Core: a.core, Block: a.block, Write: a.write, Index: int32(i)}
	}
	return stream
}

func TestCoherenceConstruction(t *testing.T) {
	if _, err := NewCoherence(nil, 0, -1); err == nil {
		t.Error("negative window accepted")
	}
	p, err := NewCoherence(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "coherence" {
		t.Errorf("Name = %q", p.Name())
	}
	p.Train(0, 0, true) // no-op, must not panic
}

func TestCoherencePredictsActiveSharing(t *testing.T) {
	stream := coherenceStream(
		acc{0, 1, false}, acc{1, 1, false}, // block 1 read by two cores: 2 sharers
		acc{0, 2, false}, acc{0, 2, true}, // block 2 touched by one core only
		acc{0, 999, false}, // first touch
	)
	p, err := NewCoherence(stream, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Predict(stream[1]) {
		t.Error("actively shared block predicted private")
	}
	if p.Predict(stream[3]) {
		t.Error("single-core block predicted shared")
	}
	if p.Predict(stream[4]) {
		t.Error("first-touch block predicted shared")
	}
}

func TestCoherenceRecencyWindow(t *testing.T) {
	// A sharing event on block 1 that collapses back to a single owner:
	// core 1's store invalidates core 0's copy.
	accs := []acc{{0, 1, false}, {1, 1, true}}
	for i := 0; i < 3; i++ {
		accs = append(accs, acc{0, uint64(100 + i), false})
	}
	accs = append(accs, acc{1, 1, false}) // 4 events after the invalidation
	for i := 0; i < 20; i++ {
		accs = append(accs, acc{0, uint64(200 + i), false})
	}
	accs = append(accs, acc{1, 1, false}) // 25 events after it
	stream := coherenceStream(accs...)
	p, err := NewCoherence(stream, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Predict(stream[1]) || !p.Predict(stream[5]) {
		t.Error("block with a fresh coherence event predicted private")
	}
	if p.Predict(stream[len(stream)-1]) {
		t.Error("stale coherence event still predicting shared")
	}
}

// TestCoherenceColumnMatchesObserved holds the column NewCoherence builds
// to the observer-fed predictor at every stream position, over
// pseudo-random streams and the phased stream, for the default window
// (0), the narrowest (1) and a mid-size one.
func TestCoherenceColumnMatchesObserved(t *testing.T) {
	streams := map[string][]cache.AccessInfo{
		"driven-5":  drivenStream(20000, 3000, 5),
		"driven-9":  drivenStream(20000, 300, 9),
		"mixed":     mixedStream(20000),
		"phased":    phasedStream(),
		"coherence": coherenceStream(acc{0, 1, false}, acc{1, 1, true}, acc{1, 1, false}),
	}
	for name, stream := range streams {
		for _, window := range []int64{0, 1, 4096} {
			p, err := NewCoherence(stream, 0, window)
			if err != nil {
				t.Fatal(err)
			}
			w := uint64(window)
			if w == 0 {
				w = defaultCoherenceWindow
			}
			ref := newObservedCoherence(stream, w)
			shared := 0
			for i, a := range stream {
				ref.observe(a)
				want := ref.predict(a)
				if got := p.Predict(a); got != want {
					t.Fatalf("%s, window %d: position %d predicted %v, observer %v", name, window, i, got, want)
				}
				if want {
					shared++
				}
			}
			if shared == 0 || shared == len(stream) {
				t.Errorf("%s, window %d: %d of %d positions predicted shared; the check is vacuous", name, window, shared, len(stream))
			}
		}
	}
}

// phasedStream alternates sharing phases: blocks flip between actively
// shared and strictly private every few residencies, the regime the
// paper's conclusion describes.
func phasedStream() []cache.AccessInfo {
	var stream []cache.AccessInfo
	add := func(core uint8, block uint64, write bool) {
		stream = append(stream, cache.AccessInfo{
			Core: core, Block: block, Write: write,
			PC: 0x400 + block*4, Index: int32(len(stream)),
		})
	}
	const nBlocks = 64
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
	return stream
}

func TestCoherenceBeatsHistoryOnPhasedSharing(t *testing.T) {
	// A phased workload: blocks are shared in their first life, then go
	// private. Address history keeps predicting shared (it trained on the
	// shared phase) and lags every flip by its training hysteresis; the
	// coherence predictor tracks the transition within a window. This is
	// the paper's "other architectural features" conjecture made
	// concrete.
	stream := phasedStream()
	addr, err := NewAddress(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	coh, err := NewCoherence(stream, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	accAddr := evaluate(t, stream, addr).Accuracy()
	accCoh := evaluate(t, stream, coh).Accuracy()
	if accCoh <= accAddr {
		t.Errorf("coherence accuracy %.3f <= address-history accuracy %.3f on phased sharing", accCoh, accAddr)
	}
}

func TestCoherenceDrivesReplacement(t *testing.T) {
	stream := mixedStream(10000)
	coh, err := NewCoherence(stream, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &counted{Predictor: coh}
	res, stats := drive(t, stream, p)
	if uint64(p.predicts) != res.Misses {
		t.Errorf("driven lane made %d predictions for %d misses", p.predicts, res.Misses)
	}
	if stats.ProtectedFills == 0 {
		t.Error("coherence predictor never protected a fill")
	}
}

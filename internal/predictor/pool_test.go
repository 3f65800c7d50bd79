package predictor

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/mem"
	"sharellc/internal/oracle"
	"sharellc/internal/policy"
	"sharellc/internal/sharing"
)

// The byte gates replay at the F4-F8 geometry: 4 MB, 16 ways.
const gateSize, gateWays = 4 * cache.MB, 16

// gateBudget is one gate lane's LRU stamps (sets*ways words): a warm
// replay must allocate less, so no lane's state can be fresh.
func gateBudget(t *testing.T) uint64 {
	t.Helper()
	sets, err := cache.Geometry(gateSize, gateWays)
	if err != nil {
		t.Fatal(err)
	}
	return uint64(sets * gateWays * 8)
}

// warmAllocBytes runs replay once to warm the mem pool, then returns
// the bytes a second run allocates (runtime.MemStats.TotalAlloc). Both
// runs are at GOMAXPROCS=1, where the worker pool has no helper: the
// lanes replay one at a time in the same order, as the one-lane budget
// of the byte gates assumes.
func warmAllocBytes(t *testing.T, replay func()) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	replay()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// f8Replay is one workload of F8 at the gate geometry: bare LRU, its
// oracle lane, and an addr- and a pc-driven lane, replayed counts only.
func f8Replay(t *testing.T, stream []cache.AccessInfo) {
	t.Helper()
	opts := core.Options{Strength: core.Full}
	cols := oracle.Columns(stream, 0, []int64{oracle.Horizon(gateSize, oracle.HorizonFactor)})
	lanes := []sharing.LLCConfig{{Size: gateSize, Ways: gateWays, NewPolicy: lru},
		{Size: gateSize, Ways: gateWays, NewPolicy: func() cache.Policy {
			return core.NewLane(core.NewProtectorOpts(lru(), opts), oracle.Hints(cols[0]))
		}}}
	addr, err := NewAddress(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPC(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []Predictor{addr, pc} {
		lanes = append(lanes, sharing.LLCConfig{Size: gateSize, Ways: gateWays, NewPolicy: func() cache.Policy {
			return drivenLane(lru(), opts, pred)
		}})
	}
	if _, err := sharing.ReplayMulti(stream, lanes, sharing.Options{Tier: sharing.CountsOnly}); err != nil {
		t.Fatal(err)
	}
	mem.Release(cols[0])
}

// TestDrivenPassAllocPooled is TestPolicyPassAllocCatalogueLanes'
// byte gate for an F8-shaped replay (f8Replay): once the mem pool is
// warm, the replay, its hint column and its predictors allocate less
// than one lane's LRU stamps. Wired into CI via `go test -run Alloc`.
func TestDrivenPassAllocPooled(t *testing.T) {
	stream := drivenStream(60000, 3000, 7)
	budget := gateBudget(t)
	n := warmAllocBytes(t, func() { f8Replay(t, stream) })
	if n >= budget {
		t.Errorf("a warm F8-shaped replay allocated %d bytes, not below one lane's %d bytes of LRU stamps", n, budget)
	} else {
		t.Logf("a warm F8-shaped replay allocated %d bytes (LRU stamps %d)", n, budget)
	}
}

// f7Replay is one workload of F7 at the gate geometry: one scored LRU
// lane carrying preds, replayed counts only. It returns the lane's
// confusion matrices.
func f7Replay(t *testing.T, stream []cache.AccessInfo, preds []Predictor) []PredStats {
	t.Helper()
	lane := NewScored(lru(), preds)
	cfg := sharing.LLCConfig{Size: gateSize, Ways: gateWays, NewPolicy: func() cache.Policy { return lane }}
	if _, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{cfg}, sharing.Options{Tier: sharing.CountsOnly}); err != nil {
		t.Fatal(err)
	}
	return lane.Stats()
}

// TestScoredPassAllocPooled is the byte gate for an F7-shaped replay
// (f7Replay with all six predictors), and for the coherence predictor
// within it: its column, directory and last-event column come from the
// mem pool, and the scored lane hands the column back when the replay
// ends, so once the pool is warm the lane with the coherence predictor
// allocates at most 16 KiB more than the lane without it (a quarter of
// its column). Wired into CI via `go test -run Alloc`.
func TestScoredPassAllocPooled(t *testing.T) {
	stream := drivenStream(60000, 3000, 7)
	budget := gateBudget(t)
	var coh *Coherence
	n := warmAllocBytes(t, func() {
		preds := predictors(t, stream)
		coh = preds[3].(*Coherence)
		f7Replay(t, stream, preds)
	})
	if n >= budget {
		t.Errorf("a warm F7-shaped replay allocated %d bytes, not below one lane's %d bytes of LRU stamps", n, budget)
	} else {
		t.Logf("a warm F7-shaped replay allocated %d bytes (LRU stamps %d)", n, budget)
	}
	if coh.col != nil {
		t.Error("the scored lane did not release the coherence column")
	}
	without := warmAllocBytes(t, func() {
		preds := predictors(t, stream)
		preds[3].(*Coherence).Release() // built but left out of the lane
		f7Replay(t, stream, slices.Delete(preds, 3, 4))
	})
	const slack = 16 << 10
	if n > without+slack {
		t.Errorf("the coherence predictor added %d bytes to a warm F7-shaped replay (%d without it), more than %d; its %d-byte column is not pooled",
			n-without, without, slack, len(stream))
	} else {
		t.Logf("the coherence predictor added %d bytes to a warm F7-shaped replay (%d without it)", int64(n)-int64(without), without)
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestReleasedLanesDropTheirState holds a replay's lanes to the release
// contract: a policy the caller stashed has nil state slices once
// ReplayMulti returns, so a late Hit or Victim panics instead of reading
// an array the pool has handed to another lane, while the counters the
// experiments read afterwards — Protector.Stats and a scored lane's
// matrices — equal their hooked references, which keep their state.
func TestReleasedLanesDropTheirState(t *testing.T) {
	stream := drivenStream(30000, 3000, 5)
	const ways = 8
	opts := core.Options{Strength: core.Full}
	var bare *policy.LRUPolicy
	var driven *core.Lane
	var hint *Driven
	var scoredLane *Scored
	var srrip cache.Policy
	pred, err := NewAddress(Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	srripF, err := policy.ByName("srrip", 1)
	if err != nil {
		t.Fatal(err)
	}
	lanes := []sharing.LLCConfig{
		{Size: drivenSize, Ways: ways, NewPolicy: func() cache.Policy { bare = policy.NewLRUPolicy(); return bare }},
		{Size: drivenSize, Ways: ways, NewPolicy: func() cache.Policy {
			hint = NewDriven(pred)
			driven = core.NewLane(core.NewProtectorOpts(lru(), opts), hint)
			return driven
		}},
		{Size: drivenSize, Ways: ways, NewPolicy: func() cache.Policy {
			scoredLane = NewScored(lru(), predictors(t, stream))
			return scoredLane
		}},
		{Size: drivenSize, Ways: ways, NewPolicy: func() cache.Policy {
			srrip = core.NewProtectorOpts(srripF(), opts)
			return srrip
		}},
	}
	if _, err := sharing.ReplayMulti(stream, lanes, sharing.Options{}); err != nil {
		t.Fatal(err)
	}
	if stamp, _ := bare.KernelState(); stamp != nil {
		t.Error("the bare LRU lane kept its stamps")
	}
	if hint.lines != nil || scoredLane.lines != nil {
		t.Errorf("a lane kept its lines: driven %v, scored %v", hint.lines != nil, scoredLane.lines != nil)
	}
	a := &stream[0]
	for name, late := range map[string]func(){
		"bare LRU Hit":         func() { bare.Hit(0, 0, a) },
		"driven Hit":           func() { driven.Hit(0, 0, a) },
		"driven Victim":        func() { driven.Victim(0, a) },
		"scored Hit":           func() { scoredLane.Hit(0, 0, a) },
		"protected SRRIP Hit":  func() { srrip.Hit(0, 0, a) },
		"protected SRRIP Fill": func() { srrip.Fill(0, 0, a) },
	} {
		if !panics(late) {
			t.Errorf("%s after the replay did not panic", name)
		}
	}

	// The hooked references: a hooked lane is never released.
	refPred, err := NewAddress(Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	var refProt *core.Protector
	hooked := sharing.LLCConfig{Size: drivenSize, Ways: ways, Hooks: HooksFor(refPred), NewPolicy: func() cache.Policy {
		refProt = core.NewProtectorOpts(lru(), opts)
		return refProt
	}}
	if _, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{hooked}, sharing.Options{}); err != nil {
		t.Fatal(err)
	}
	if got, want := driven.Stats(), refProt.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("released driven lane's Stats %+v, hooked reference %+v", got, want)
	}
	if got, want := scoredLane.Stats(), hookedScores(t, stream, ways, lru, predictors(t, stream)); !slices.Equal(got, want) {
		t.Errorf("released scored lane's matrices %+v, hooked reference %+v", got, want)
	}
}

package phase

import (
	"math/bits"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
)

// mk builds a stream of (core, block) pairs.
func mk(pairs [][2]uint64) []cache.AccessInfo {
	out := make([]cache.AccessInfo, len(pairs))
	for i, p := range pairs {
		out[i] = cache.AccessInfo{Core: uint8(p[0]), Block: p[1], Index: int32(i)}
	}
	return out
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil, 0); err == nil {
		t.Error("0 windows accepted")
	}
	if _, err := Analyze(nil, 65); err == nil {
		t.Error("65 windows accepted")
	}
	r, err := Analyze(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.DistinctTotal != 0 || r.FlipRate() != 0 || r.MixedFraction() != 0 {
		t.Error("empty stream produced stats")
	}
}

func TestStableSharedBlock(t *testing.T) {
	// Block 1 is shared in both windows: one persist transition, classed
	// always-shared.
	stream := mk([][2]uint64{
		{0, 1}, {1, 1}, // window 0: shared
		{0, 1}, {2, 1}, // window 1: shared
	})
	r, err := Analyze(stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Persist != 1 || r.Flip != 0 {
		t.Errorf("transitions = (%d persist, %d flip), want (1,0)", r.Persist, r.Flip)
	}
	if r.AlwaysShared != 1 || r.Mixed != 0 {
		t.Errorf("classes = always %d mixed %d", r.AlwaysShared, r.Mixed)
	}
	if r.SharedBlocks[0] != 1 || r.SharedBlocks[1] != 1 {
		t.Errorf("per-window shared counts = %v", r.SharedBlocks)
	}
}

func TestFlippingBlock(t *testing.T) {
	// Block 1: shared in window 0, private in window 1, shared in 2.
	stream := mk([][2]uint64{
		{0, 1}, {1, 1},
		{0, 1}, {0, 1},
		{0, 1}, {2, 1},
	})
	r, err := Analyze(stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flip != 2 || r.Persist != 0 {
		t.Errorf("transitions = (%d persist, %d flip), want (0,2)", r.Persist, r.Flip)
	}
	if r.Mixed != 1 {
		t.Errorf("mixed = %d, want 1", r.Mixed)
	}
	if got := r.FlipRate(); got != 1 {
		t.Errorf("FlipRate = %v, want 1", got)
	}
	if got := r.MixedFraction(); got != 1 {
		t.Errorf("MixedFraction = %v, want 1", got)
	}
}

func TestSingleWindowBlocksUnclassified(t *testing.T) {
	stream := mk([][2]uint64{
		{0, 1}, {1, 1}, // block 1 only in window 0
		{0, 2}, {0, 2}, // block 2 only in window 1
	})
	r, err := Analyze(stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.SingleWindow != 2 {
		t.Errorf("single-window blocks = %d, want 2", r.SingleWindow)
	}
	if r.AlwaysShared+r.NeverShared+r.Mixed != 0 {
		t.Error("single-window blocks were classified")
	}
}

func TestNeverSharedBlock(t *testing.T) {
	stream := mk([][2]uint64{
		{3, 9}, {3, 9},
		{3, 9}, {3, 9},
	})
	r, err := Analyze(stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.NeverShared != 1 {
		t.Errorf("never-shared = %d, want 1", r.NeverShared)
	}
}

func TestAnalyzeConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 200 + rnd.Intn(2000)
		stream := make([]cache.AccessInfo, n)
		for i := range stream {
			stream[i] = cache.AccessInfo{
				Core:  uint8(rnd.Intn(8)),
				Block: rnd.Uint64n(64),
				Index: int32(i),
			}
		}
		windows := 1 + rnd.Intn(16)
		r, err := Analyze(stream, windows)
		if err != nil {
			return false
		}
		// Classified + single-window = distinct blocks.
		if r.AlwaysShared+r.NeverShared+r.Mixed+r.SingleWindow != r.DistinctTotal {
			return false
		}
		// Shared can never exceed active per window.
		for w := range r.ActiveBlocks {
			if r.SharedBlocks[w] > r.ActiveBlocks[w] {
				return false
			}
		}
		// Flip rate bounded.
		if fr := r.FlipRate(); fr < 0 || fr > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWindowsOneIsDegenerateButValid(t *testing.T) {
	stream := mk([][2]uint64{{0, 1}, {1, 1}, {0, 2}})
	r, err := Analyze(stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.SingleWindow != 2 {
		t.Errorf("one-window analysis: single = %d, want 2", r.SingleWindow)
	}
	if r.SharedBlocks[0] != 1 || r.ActiveBlocks[0] != 2 {
		t.Errorf("window stats = shared %v active %v", r.SharedBlocks, r.ActiveBlocks)
	}
}

// probeStats is the reference for Analyze's transition and class
// counts: per-block histories from maps over the same windows, then 64
// probes of each block's window bits in order.
func probeStats(stream []cache.AccessInfo, windows int) Result {
	winSize := max(len(stream)/windows, 1)
	active, shared := map[uint64]uint64{}, map[uint64]uint64{}
	for w := 0; w < windows && w*winSize < len(stream); w++ {
		end := min((w+1)*winSize, len(stream))
		if w == windows-1 {
			end = len(stream)
		}
		cores := map[uint64]map[uint8]bool{}
		for _, a := range stream[w*winSize : end] {
			if cores[a.Block] == nil {
				cores[a.Block] = map[uint8]bool{}
			}
			cores[a.Block][a.Core] = true
		}
		for b, cs := range cores {
			active[b] |= 1 << w
			if len(cs) >= 2 {
				shared[b] |= 1 << w
			}
		}
	}
	var res Result
	for b, act := range active {
		res.DistinctTotal++
		if bits.OnesCount64(act) < 2 {
			res.SingleWindow++
			continue
		}
		var prevShared, have bool
		allShared, noneShared := true, true
		for w := 0; w < 64; w++ {
			if act>>w&1 == 0 {
				continue
			}
			sh := shared[b]>>w&1 == 1
			if sh {
				noneShared = false
			} else {
				allShared = false
			}
			if have {
				if sh == prevShared {
					res.Persist++
				} else {
					res.Flip++
				}
			}
			prevShared, have = sh, true
		}
		switch {
		case allShared:
			res.AlwaysShared++
		case noneShared:
			res.NeverShared++
		default:
			res.Mixed++
		}
	}
	return res
}

// TestAnalyzeMatchesProbeReference holds Analyze's Persist, Flip,
// AlwaysShared, NeverShared, Mixed and SingleWindow to the 64-probe
// reference on random streams at 1, 2, 16, 63 and 64 windows (64 sets
// bit 63 of the histories). Cores span up to the machine's 128
// (cache.Config), so both core-mask words are exercised.
func TestAnalyzeMatchesProbeReference(t *testing.T) {
	rnd := rng.New(17)
	for trial := 0; trial < 20; trial++ {
		n := 64 + rnd.Intn(5000)
		blocks := 1 + rnd.Uint64n(200)
		cores := 2 + rnd.Intn(127)
		stream := make([]cache.AccessInfo, n)
		for i := range stream {
			stream[i] = cache.AccessInfo{Core: uint8(rnd.Intn(cores)), Block: rnd.Uint64n(blocks), Index: int32(i)}
		}
		for _, windows := range []int{1, 2, 16, 63, 64} {
			got, err := Analyze(stream, windows)
			if err != nil {
				t.Fatal(err)
			}
			want := probeStats(stream, windows)
			g := [6]uint64{got.Persist, got.Flip, got.AlwaysShared, got.NeverShared, got.Mixed, got.SingleWindow}
			w := [6]uint64{want.Persist, want.Flip, want.AlwaysShared, want.NeverShared, want.Mixed, want.SingleWindow}
			if g != w || got.DistinctTotal != want.DistinctTotal {
				t.Errorf("trial %d (%d accesses, %d blocks, %d cores), %d windows: persist/flip/always/never/mixed/single = %v over %d blocks, reference %v over %d",
					trial, n, blocks, cores, windows, g, got.DistinctTotal, w, want.DistinctTotal)
			}
		}
	}
}

// TestPhaseAnalyzeAllocPooled is F9's byte gate: once the mem pool is
// warm, Analyze allocates its Result plus a constant. The per-block
// histories and core masks (16 bytes each per block) and the window's
// touched list come from the pool. Wired into CI via
// `go test -run Alloc`.
func TestPhaseAnalyzeAllocPooled(t *testing.T) {
	const n, blocks, fixed = 1 << 18, 1 << 15, 1 << 10
	rnd := rng.New(5)
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		stream[i] = cache.AccessInfo{Block: rnd.Uint64n(blocks), Core: uint8(rnd.Intn(8)), Index: int32(i)}
	}
	cache.AnnotateNextUse(stream)
	want, err := Analyze(stream, DefaultWindows) // warm the mem pool
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Analyze(stream, DefaultWindows)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a warm run's result %+v differs from the cold run's %+v", got, want)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("a warm F9 over %d accesses and %d blocks allocated %d bytes", n, blocks, alloc)
	if alloc > fixed {
		t.Errorf("a warm F9 allocated %d bytes, past %d", alloc, fixed)
	}
}

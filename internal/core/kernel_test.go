package core_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/oracle"
	"sharellc/internal/predictor"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// genericLane hides a lane policy's batch kernel: it forwards only the
// cache.Policy methods, so NewSetAssoc binds no kernel and
// ReplayBatchCols runs its generic loop over the lane's per-call methods.
type genericLane struct{ lane cache.Policy }

func (g genericLane) Name() string                            { return g.lane.Name() }
func (g genericLane) Attach(sets, ways int)                   { g.lane.Attach(sets, ways) }
func (g genericLane) Hit(set, way int, a *cache.AccessInfo)   { g.lane.Hit(set, way, a) }
func (g genericLane) Victim(set int, a *cache.AccessInfo) int { return g.lane.Victim(set, a) }
func (g genericLane) Fill(set, way int, a *cache.AccessInfo)  { g.lane.Fill(set, way, a) }

// recorder logs every prediction and every training of the predictor it
// wraps.
type recorder struct {
	pred predictor.Predictor
	log  []uint64
}

func (r *recorder) Name() string { return r.pred.Name() }

func (r *recorder) Predict(a cache.AccessInfo) bool {
	p := r.pred.Predict(a)
	r.log = append(r.log, uint64(a.Index)<<1|b2u(p))
	return p
}

func (r *recorder) Train(block, fillPC uint64, shared bool) {
	r.log = append(r.log, math.MaxUint64, block, fillPC, b2u(shared))
	r.pred.Train(block, fillPC, shared)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// kernelLane is one protected lane under test: its policy, the LRU base
// inside it, its Protector and, for a predictor-driven lane, the
// recorder of its predictor.
type kernelLane struct {
	pol  cache.Policy
	base *cache.LRU
	prot *core.Protector
	rec  *recorder
}

// laneState is everything a replay of one lane leaves behind.
type laneState struct {
	out    []uint32
	active []uint32 // the final residency table
	stats  core.Stats
	stamps []uint64
	clock  uint64
	log    []uint64
}

// replayLane replays stream through a fresh cache over lane — behind a
// genericLane when generic — in uneven ReplayBatchCols chunks, and
// reports whether the cache bound a kernel.
func replayLane(t *testing.T, lane kernelLane, generic bool, sets, ways int, stream []cache.AccessInfo, numBlocks int) (laneState, bool) {
	t.Helper()
	pol := lane.pol
	if generic {
		pol = genericLane{pol}
	}
	c, err := cache.NewSetAssoc(sets*ways*trace.BlockSize, ways, pol)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]uint64, len(stream))
	id := make([]uint32, len(stream))
	for i := range stream {
		blk[i], id[i] = stream[i].Block, stream[i].BlockID
	}
	active := make([]uint32, numBlocks)
	lineID := make([]uint32, sets*ways)
	var s laneState
	s.out = make([]uint32, len(stream))
	chunks := []int{1, 37, 512, 2048}
	for lo, i := 0, 0; lo < len(stream); lo, i = lo+chunks[i%len(chunks)], i+1 {
		hi := min(lo+chunks[i%len(chunks)], len(stream))
		c.ReplayBatchCols(blk[lo:hi], id[lo:hi], stream[lo:hi], active, lineID, s.out[lo:hi])
	}
	s.active = active
	s.stats = lane.prot.Stats()
	stamps, clock := lane.base.KernelState()
	s.stamps, s.clock = slices.Clone(stamps), *clock
	if lane.rec != nil {
		s.log = lane.rec.log
	}
	return s, c.HasBatchKernel()
}

// kernelStream builds a stream with a hot working set (so hits, and
// cross-core hits on protected lines, are common) over eight cores and a
// small PC pool, with dense BlockIDs.
func kernelStream(n, blocks int, seed uint64) ([]cache.AccessInfo, int) {
	r := rng.New(seed)
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		b := uint64(r.Intn(blocks))
		if r.Bool(0.5) {
			b = uint64(r.Intn(blocks / 8))
		}
		stream[i] = cache.AccessInfo{Block: b, Core: uint8(r.Intn(8)), PC: 0x400 + b%13*4, Index: int32(i)}
	}
	return stream, cache.AssignBlockIDs(stream)
}

// kernelOptions are the protection settings the kernel differentials
// cover.
var kernelOptions = []core.Options{
	{Strength: core.Full},
	{Strength: core.InsertOnly},
	{Strength: core.Full, ClearOnFulfil: true},
	{Strength: core.Full, SkipBudget: 1},
	{Strength: core.Full, SkipBudget: -1},
}

// hintColumns are the oracle-lane hint sources: every fill hinted (the
// lockout path), none (the hint-rate gate stays closed) and one in eight
// (the gate opens, so unhinted fills demote — in filling sets too, where
// Demote wraps).
func hintColumns(n int) map[string][]bool {
	r := rng.New(3)
	all, none, mixed := make([]bool, n), make([]bool, n), make([]bool, n)
	for i := range all {
		all[i] = true
		mixed[i] = r.Intn(8) == 0
	}
	return map[string][]bool{"all": all, "none": none, "mixed": mixed}
}

// drivenPredictors builds one fresh instance of each predictor a driven
// lane can carry, the coherence predictor over stream.
func drivenPredictors(t *testing.T, stream []cache.AccessInfo) []predictor.Predictor {
	t.Helper()
	addr, err := predictor.NewAddress(predictor.Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := predictor.NewPC(predictor.Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	tour, err := predictor.NewTournament(predictor.Config{TableBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	coh, err := predictor.NewCoherence(stream, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return []predictor.Predictor{addr, pc, tour, coh, predictor.Always{}, predictor.Never{}}
}

// TestProtectedLRUKernelVsGeneric holds the protected-LRU kernel to the
// generic ReplayBatchCols loop over the same lane's per-call methods, for
// oracle lanes (all, no and mixed hints) and predictor-driven lanes (every
// predictor) at 8, 16 and 64 ways under every protection setting. Outcome
// words, the residency table, Protector stats, the LRU stamps and clock, and
// for driven lanes every prediction and training must be equal, and the
// kernel must be the route actually bound.
func TestProtectedLRUKernelVsGeneric(t *testing.T) {
	const sets = 32
	for _, ways := range []int{8, 16, 64} {
		stream, numBlocks := kernelStream(30000, 4*sets*ways, uint64(ways))
		hints := hintColumns(len(stream))
		for oi, opts := range kernelOptions {
			lanes := map[string]func() kernelLane{}
			for name, col := range hints {
				lanes["oracle-"+name] = func() kernelLane {
					base := &cache.LRU{}
					h := core.NewLane(core.NewProtectorOpts(base, opts), oracle.Hints(col))
					return kernelLane{pol: h, base: base, prot: h.Protector}
				}
			}
			for pi, pred := range drivenPredictors(t, stream) {
				lanes["driven-"+pred.Name()] = func() kernelLane {
					base := &cache.LRU{}
					rec := &recorder{pred: drivenPredictors(t, stream)[pi]}
					d := core.NewLane(core.NewProtectorOpts(base, opts), predictor.NewDriven(rec))
					return kernelLane{pol: d, base: base, prot: d.Protector, rec: rec}
				}
			}
			for name, lane := range lanes {
				at := fmt.Sprintf("%s, %d ways, opts %d", name, ways, oi)
				got, bound := replayLane(t, lane(), false, sets, ways, stream, numBlocks)
				want, twinBound := replayLane(t, lane(), true, sets, ways, stream, numBlocks)
				if !bound || twinBound {
					t.Fatalf("%s: kernel bound %v, generic twin bound %v; want true, false", at, bound, twinBound)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: kernel replay differs from the generic loop\n%s", at, firstDiff(got, want))
				}
			}
		}
	}
}

// firstDiff names the first field in which two replays differ.
func firstDiff(got, want laneState) string {
	if i := slices.Compare(got.out, want.out); i != 0 {
		for k := range got.out {
			if got.out[k] != want.out[k] {
				return fmt.Sprintf("outcome %d: %#x, want %#x", k, got.out[k], want.out[k])
			}
		}
	}
	if got.stats != want.stats {
		return fmt.Sprintf("stats %+v, want %+v", got.stats, want.stats)
	}
	if got.clock != want.clock || !slices.Equal(got.stamps, want.stamps) {
		return fmt.Sprintf("LRU clock %d, want %d (or stamps differ)", got.clock, want.clock)
	}
	if !slices.Equal(got.log, want.log) {
		return fmt.Sprintf("predictor log differs (%d vs %d entries)", len(got.log), len(want.log))
	}
	return "residency table differs"
}

// TestProtectedLRUKernelWrappedDemote replays 8-way oracle lanes whose
// unhinted fills demote while their set still has never-filled ways, so
// they store the wrapped stamp MaxUint64 (see cache.LRU.Attach), and holds
// the kernel to the generic loop and to the victim each case pins:
//
//   - keyed: blocks 0–7 fill the one set, ways 1 and 2 wrapped and ways
//     0 and 3–6 protected. Block 8's miss must take the keyed order
//     (-int64(stamp)), which ranks wrapped way 1 first, where LRU's
//     unsigned order would evict way 7.
//   - demote-min: block 1 opens the hint-rate gate from set 1, then blocks
//     0, 2, …, 14 fill set 0 unhinted, so ways 0–6 wrap. Way 7's Demote
//     takes the min over the whole set, its own new stamp included, and
//     stores that stamp minus one; block 0's hit then makes way 0 the more
//     recent, and block 16's miss must evict way 7.
func TestProtectedLRUKernelWrappedDemote(t *testing.T) {
	cases := []struct {
		name   string
		sets   int
		blocks []uint64
		hints  []bool
		want   uint32 // line the last access evicts
	}{
		{"keyed", 1, []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8},
			[]bool{true, false, false, true, true, true, true, false, false}, 1},
		{"demote-min", 2, []uint64{1, 0, 2, 4, 6, 8, 10, 12, 14, 0, 16},
			[]bool{true, false, false, false, false, false, false, false, false, false, false}, 7},
	}
	for _, tc := range cases {
		stream := make([]cache.AccessInfo, len(tc.blocks))
		for i, b := range tc.blocks {
			stream[i] = cache.AccessInfo{Block: b, Index: int32(i)}
		}
		numBlocks := cache.AssignBlockIDs(stream)
		lane := func() kernelLane {
			base := &cache.LRU{}
			h := core.NewLane(core.NewProtectorOpts(base, core.Options{Strength: core.Full}), oracle.Hints(tc.hints))
			return kernelLane{pol: h, base: base, prot: h.Protector}
		}
		got, _ := replayLane(t, lane(), false, tc.sets, 8, stream, numBlocks)
		want, _ := replayLane(t, lane(), true, tc.sets, 8, stream, numBlocks)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel replay differs from the generic loop\n%s", tc.name, firstDiff(got, want))
		}
		if !slices.Contains(want.stamps, math.MaxUint64) {
			t.Errorf("%s: no stamp wrapped: %v", tc.name, want.stamps)
		}
		if o := got.out[len(stream)-1]; o != tc.want|cache.BatchEvict {
			t.Errorf("%s: last miss has outcome %#x, want it to evict line %d", tc.name, o, tc.want)
		}
	}
}

package sharing

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sharellc/internal/cache"
)

// TestTrackerVsSequential holds the engine's SoA tracker to the
// struct-Residency tracker of the reference walk over every experiment
// family — the full policy catalogue, a hooked lane and a 128-way lane —
// at a second geometry, at every prefix.
func TestTrackerVsSequential(t *testing.T) {
	stream := synthStream(40000, 3000, 8, 7)
	var hooks uint64
	configs := batchTestConfigs(t, 128*cache.KB, 16, &hooks)
	configsAgree(t, stream, configs, Options{})
}

// TestTrackerWideCoreRejected streams cores past the packed word's 63
// (indices 0..62): the replay must fail with an error naming the limit
// before any lane's policy pass runs. A 63-core stream (the widest that
// fits) replays and matches the reference walk.
func TestTrackerWideCoreRejected(t *testing.T) {
	for _, cores := range []uint8{63, 64, 100} {
		stream := synthStream(15000, 1200, cores, uint64(cores))
		var asked atomic.Int32 // the lanes' passes ask concurrently
		hooks := Hooks{PredictShared: func(cache.AccessInfo) bool { asked.Add(1); return false }}
		configs := []LLCConfig{
			{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return &cache.LRU{} }},
			{Size: 32 * cache.KB, Ways: 8, NewPolicy: catalogued(t, "drrip", 5)},
			{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return &cache.LRU{} }, Hooks: hooks},
		}
		got, err := ReplayMulti(stream, configs, Options{})
		if cores > soaMaxCores {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(soaMaxCores)) {
				t.Errorf("cores %d: err = %v, want the %d-core limit", cores, err, soaMaxCores)
			}
			if asked.Load() != 0 {
				t.Errorf("cores %d: the hooked lane ran before the rejection", cores)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range configs {
			ref, err := seqReplay(stream, c, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], ref) {
				t.Errorf("cores %d, config %d: result differs from the reference walk", cores, i)
			}
		}
	}
}

// closeDrainScratch builds a batchScratch holding n synthetic captured
// evictions drawn from r over numBlocks blocks.
func closeDrainScratch(r *rand.Rand, n, numBlocks int) *batchScratch {
	bs := &batchScratch{
		ecw:   make([]uint64, batchSize),
		ehits: make([]uint64, batchSize),
		eid:   make([]uint32, batchSize),
	}
	for k := 0; k < n; k++ {
		// Core/write words with 0–3 core bits (degrees 0..3 cover the
		// private/shared and RO/RW branches) plus a random store flag.
		var cw uint64
		for b := r.Intn(4); b > 0; b-- {
			cw |= uint64(1) << r.Intn(soaMaxCores)
		}
		if r.Intn(2) == 1 {
			cw |= cwWritten
		}
		bs.ecw[k] = cw
		bs.ehits[k] = uint64(r.Intn(100))
		bs.eid[k] = uint32(r.Intn(numBlocks))
	}
	return bs
}

// closeCapturedRef is the struct-Residency reference for flushClosed: each
// captured (cw, hits, id) entry is rebuilt as the Residency it stands
// for — one addCore per core bit, written from bit 63 — and closed
// through closeRes.
func closeCapturedRef(st *seqState, bs *batchScratch, n int) {
	for k := 0; k < n; k++ {
		cw := bs.ecw[k]
		r := Residency{Hits: bs.ehits[k], id: bs.eid[k], written: cw&cwWritten != 0}
		for m := cw &^ cwWritten; m != 0; m &= m - 1 {
			r.addCore(uint8(bits.TrailingZeros64(m)))
		}
		st.closeRes(&r, int64(k))
	}
}

// FuzzCloseDrain fuzzes the SoA tracker's deferred close drain
// (flushClosed) against closeRes on the same captures rebuilt as struct
// residencies: entry counts at and around the chunk boundary (zero
// evictions, a full chunk of them) and block censuses from one block
// (every capture collides) to far more blocks than a chunk holds.
// Counters and census bytes must come out identical.
func FuzzCloseDrain(f *testing.F) {
	f.Add(uint16(0), uint64(1))
	f.Add(uint16(1), uint64(2))
	f.Add(uint16(batchSize), uint64(3))
	f.Add(uint16(batchSize-1), uint64(4))
	f.Add(uint16(100), uint64(5))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed uint64) {
		n := min(int(nRaw), batchSize)
		for _, numBlocks := range []int{1, 255, 10240} {
			bs := closeDrainScratch(rand.New(rand.NewSource(int64(seed))), n, numBlocks)
			ref := &seqState{replayState: replayState{res: newResult("drain"), blockState: make([]uint8, numBlocks)}}
			got := &replayState{res: newResult("drain"), blockState: make([]uint8, numBlocks)}
			closeCapturedRef(ref, bs, n)
			got.flushClosed(bs, n)
			if !reflect.DeepEqual(ref.res, got.res) {
				t.Errorf("numBlocks=%d n=%d: drain result differs from closeRes\nref: %+v\ngot: %+v",
					numBlocks, n, ref.res, got.res)
			}
			if !reflect.DeepEqual(ref.blockState, got.blockState) {
				t.Errorf("numBlocks=%d n=%d: drain census differs from closeRes", numBlocks, n)
			}
		}
	})
}

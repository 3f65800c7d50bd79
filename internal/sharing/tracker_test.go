package sharing

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
)

// TestTrackerVsSequential holds the engine's SoA tracker to the
// struct-Residency tracker of the reference walk over every experiment
// family — the full policy catalogue (sharded and two-phase lanes), a
// hooked lane and a 128-way sharded lane — at a second geometry and
// worker count, at every prefix.
func TestTrackerVsSequential(t *testing.T) {
	stream := synthStream(40000, 3000, 8, 7)
	var hooks uint64
	configs := batchTestConfigs(t, 128*cache.KB, 16, &hooks)
	configsAgree(t, stream, configs, Options{Shards: 2})
}

// TestTrackerWideCoreRejected streams cores past the packed word's 63
// (indices 0..62): the replay must fail with an error naming the limit,
// whether it builds its partition or a caller's Partitioner supplies it
// (as sim.Stream does), and before any lane's policy pass or shard walk
// runs. A 63-core stream (the widest that fits) replays and matches the
// reference walk.
func TestTrackerWideCoreRejected(t *testing.T) {
	for _, cores := range []uint8{63, 64, 100} {
		stream := synthStream(15000, 1200, cores, uint64(cores))
		var asked atomic.Int32 // passes and shard walks ask concurrently
		hooks := Hooks{PredictShared: func(cache.AccessInfo) bool { asked.Add(1); return false }}
		configs := []LLCConfig{
			{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewLRUPolicy() }},
			{Size: 32 * cache.KB, Ways: 8, NewPolicy: catalogued(t, "drrip", 5)},
			{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewLRUPolicy() }, Hooks: hooks},
		}
		partitioned := 0
		partitioner := func(shards int) (*PartitionIndex, error) {
			partitioned++
			return BuildPartition(stream, shards)
		}
		for _, opt := range []Options{{Shards: 4}, {Shards: 4, Partitioner: partitioner}} {
			asked.Store(0)
			got, err := ReplayMulti(stream, configs, opt)
			if cores > soaMaxCores {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprint(soaMaxCores)) {
					t.Errorf("cores %d, partitioner %v: err = %v, want the %d-core limit", cores, opt.Partitioner != nil, err, soaMaxCores)
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
					t.Errorf("cores %d, partitioner %v, config %d: result differs from the reference walk", cores, opt.Partitioner != nil, i)
				}
			}
		}
		if partitioned != 1 {
			t.Errorf("cores %d: the caller's partitioner was asked %d times, want once", cores, partitioned)
		}
	}
}

// FuzzTrackerLog fuzzes the fused log-decode/advance loop of the
// two-phase lanes: stream length around the chunk boundaries and
// cross-set policies (so the lanes take the outcome-log path). Each lane
// must stay bit-identical to its reference walk at every prefix.
func FuzzTrackerLog(f *testing.F) {
	f.Add(uint16(0), uint64(1))
	f.Add(uint16(batchSize-1), uint64(2))
	f.Add(uint16(batchSize), uint64(3))
	f.Add(uint16(batchSize+1), uint64(4))
	f.Add(uint16(3000), uint64(5))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64) {
		stream := synthStream(int(n), 200, 8, seed)
		configs := []LLCConfig{
			{Size: 16 * 1024, Ways: 4, NewPolicy: catalogued(t, "drrip", seed|1)},
			{Size: 16 * 1024, Ways: 4, NewPolicy: catalogued(t, "ship", 1)},
		}
		configsAgree(t, stream, configs, Options{Shards: 4})
	})
}

// countingCtx is a context whose Err() starts failing after a fixed
// number of polls — a deterministic way to kill a replay mid-run.
type countingCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *countingCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestTrackerPipelineCancel kills the replay partway through via a
// context that starts failing after a few polls: the policy pass dies,
// its ring must wake the tracker shards (no deadlock), and the replay
// must surface a real error — the context's, not the ring's internal
// sentinel.
func TestTrackerPipelineCancel(t *testing.T) {
	stream := synthStream(4*batchSize, 800, 8, 13)
	configs := []LLCConfig{
		{Size: 32 * cache.KB, Ways: 8, NewPolicy: catalogued(t, "drrip", 3)},
		{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewLRUPolicy() }},
	}
	for _, after := range []int64{0, 1, 2, 5, 8} {
		ctx := &countingCtx{Context: context.Background(), after: after}
		_, err := ReplayMulti(stream, configs, Options{Shards: 4, Ctx: ctx})
		if err == nil {
			t.Fatalf("after=%d: replay succeeded under a cancelled context", after)
		}
		if err == errPolicyPassFailed {
			t.Fatalf("after=%d: replay surfaced the internal ring sentinel instead of the cause", after)
		}
	}
}

// TestLogRing pins the ring's watermark and failure semantics directly:
// waits at or below the watermark return immediately, a parked wait
// wakes on publish, and fail() releases waiters past the watermark with
// the sentinel while chunks at or below it stay readable.
func TestLogRing(t *testing.T) {
	r := newLogRing()
	if err := r.wait(0); err != nil {
		t.Fatalf("wait(0) on a fresh ring: %v", err)
	}
	r.publish(10)
	if err := r.wait(10); err != nil {
		t.Fatalf("wait(10) after publish(10): %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- r.wait(20) }()
	r.publish(20)
	if err := <-done; err != nil {
		t.Fatalf("parked wait(20) after publish(20): %v", err)
	}
	go func() { done <- r.wait(30) }()
	r.fail()
	if err := <-done; err != errPolicyPassFailed {
		t.Fatalf("wait(30) after fail() = %v, want errPolicyPassFailed", err)
	}
	if err := r.wait(15); err != nil {
		t.Fatalf("wait(15) below the watermark after fail(): %v", err)
	}
}

// TestTrackerPipelineStress drives many two-phase lanes through the
// pipelined ring with more shards than workers, so publishes and waits
// interleave heavily; run under -race in CI. Results must match the
// reference walk.
func TestTrackerPipelineStress(t *testing.T) {
	stream := synthStream(30000, 2000, 8, 17)
	var configs []LLCConfig
	for i := 0; i < 6; i++ {
		configs = append(configs, LLCConfig{Size: 32 * cache.KB, Ways: 8,
			NewPolicy: catalogued(t, "drrip", uint64(i+1))})
	}
	configsAgree(t, stream, configs, Options{Shards: 8})
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

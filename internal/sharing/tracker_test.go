package sharing

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/rng"
)

func TestParseTracker(t *testing.T) {
	for s, want := range map[string]Tracker{"soa": TrackerSoA, "struct": TrackerStruct} {
		tr, err := ParseTracker(s)
		if err != nil || tr != want {
			t.Errorf("ParseTracker(%q) = %v, %v; want %v", s, tr, err, want)
		}
		if tr.String() != s {
			t.Errorf("Tracker(%v).String() = %q, want %q", tr, tr.String(), s)
		}
	}
	_, err := ParseTracker("aos")
	if err == nil {
		t.Fatal("ParseTracker accepted an unknown tracker")
	}
	for _, want := range []string{"aos", "soa", "struct"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseTracker error %q does not mention %q", err, want)
		}
	}
}

// trackersAgree replays every prefix of full through configs under the
// batch kernel with both tracker representations and demands byte-equal
// Results — counters, degree histograms and block census alike.
// opt.Tracker is overridden per run.
func trackersAgree(t *testing.T, full []cache.AccessInfo, configs []LLCConfig, opt Options) {
	t.Helper()
	optA, optB := opt, opt
	optA.Kernel, optA.Tracker = KernelBatch, TrackerSoA
	optB.Kernel, optB.Tracker = KernelBatch, TrackerStruct
	eachPrefix(full, func(stream []cache.AccessInfo) {
		soa, err := ReplayMulti(stream, configs, optA)
		if err != nil {
			t.Fatal(err)
		}
		structs, err := ReplayMulti(stream, configs, optB)
		if err != nil {
			t.Fatal(err)
		}
		for i := range structs {
			if !reflect.DeepEqual(soa[i], structs[i]) {
				t.Errorf("len %d, config %d (%s @ %d ways): SoA result differs from struct tracker\nsoa:    %+v\nstruct: %+v",
					len(stream), i, configs[i].NewPolicy().Name(), configs[i].Ways, soa[i], structs[i])
			}
		}
	})
}

// TestTrackerSoAVsStruct replays every experiment family — the full
// policy catalogue (shardable and two-phase lanes), a hooked lane and
// the 128-way sequential fallback — with the SoA and struct trackers
// and demands byte-equal Results at every prefix.
func TestTrackerSoAVsStruct(t *testing.T) {
	stream := synthStream(40000, 3000, 8, 7)
	var hooks int
	configs := batchTestConfigs(t, 64*cache.KB, 8, &hooks)
	trackersAgree(t, stream, configs, Options{Shards: 4})
}

// TestTrackerEnvGate pins the SHARELLC_BATCH_TRACKER escape hatch:
// with the gate off, a TrackerSoA replay runs the struct tracker and
// still produces identical Results.
func TestTrackerEnvGate(t *testing.T) {
	if !batchTrackerOn.Load() {
		t.Skip("SHARELLC_BATCH_TRACKER=off in the environment")
	}
	stream := synthStream(20000, 1500, 8, 9)
	configs := []LLCConfig{
		{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewLRUPolicy() }},
		{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewDRRIP(rng.New(3)) }},
	}
	opt := Options{Shards: 4, Kernel: KernelBatch}
	on, err := ReplayMulti(stream, configs, opt)
	if err != nil {
		t.Fatal(err)
	}
	prev := EnableBatchTracker(false)
	defer EnableBatchTracker(prev)
	off, err := ReplayMulti(stream, configs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range on {
		if !reflect.DeepEqual(on[i], off[i]) {
			t.Errorf("config %d: gated-off replay differs from SoA replay", i)
		}
	}
}

// TestTrackerWideCoreFallback streams cores past the packed word's 63
// (indices 0..62): the SoA request must silently fall back to the
// struct tracker and still match it, with and without an Options.Cores
// hint. A 63-core stream (the widest that fits) stays on the SoA path.
func TestTrackerWideCoreFallback(t *testing.T) {
	for _, cores := range []uint8{63, 64, 100} {
		stream := synthStream(15000, 1200, cores, uint64(cores))
		configs := []LLCConfig{
			{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewLRUPolicy() }},
			{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewDRRIP(rng.New(5)) }},
		}
		opt := Options{Shards: 4}
		trackersAgree(t, stream, configs, opt)
		opt.Cores = int(cores)
		trackersAgree(t, stream, configs, opt)
	}
}

// FuzzTrackerLog fuzzes the fused log-decode/advance loop of the
// two-phase lanes: stream length around the chunk boundaries and
// cross-set policies (so the lanes take the outcome-log path). SoA and
// struct replays must stay bit-identical.
func FuzzTrackerLog(f *testing.F) {
	f.Add(uint16(0), uint64(1))
	f.Add(uint16(batchSize-1), uint64(2))
	f.Add(uint16(batchSize), uint64(3))
	f.Add(uint16(batchSize+1), uint64(4))
	f.Add(uint16(3000), uint64(5))
	f.Fuzz(func(t *testing.T, n uint16, seed uint64) {
		stream := synthStream(int(n), 200, 8, seed)
		configs := []LLCConfig{
			{Size: 16 * 1024, Ways: 4, NewPolicy: func() cache.Policy { return policy.NewDRRIP(rng.New(seed | 1)) }},
			{Size: 16 * 1024, Ways: 4, NewPolicy: func() cache.Policy { return policy.NewSHiP() }},
		}
		trackersAgree(t, stream, configs, Options{Shards: 4})
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
		{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewDRRIP(rng.New(3)) }},
		{Size: 32 * cache.KB, Ways: 8, NewPolicy: func() cache.Policy { return policy.NewLRUPolicy() }},
	}
	for _, after := range []int64{0, 1, 2, 5, 8} {
		ctx := &countingCtx{Context: context.Background(), after: after}
		_, err := ReplayMulti(stream, configs, Options{Shards: 4, Kernel: KernelBatch, Ctx: ctx})
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
// barriered struct replay.
func TestTrackerPipelineStress(t *testing.T) {
	stream := synthStream(30000, 2000, 8, 17)
	var configs []LLCConfig
	for i := 0; i < 6; i++ {
		seed := uint64(i + 1)
		configs = append(configs, LLCConfig{Size: 32 * cache.KB, Ways: 8,
			NewPolicy: func() cache.Policy { return policy.NewDRRIP(rng.New(seed)) }})
	}
	trackersAgree(t, stream, configs, Options{Shards: 8})
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

// closeCapturedRef is the struct-tracker reference for flushClosed: each
// captured (cw, hits, id) entry is rebuilt as the Residency it stands
// for — one addCore per core bit, written from bit 63 — and closed
// through closeRes.
func closeCapturedRef(st *replayState, bs *batchScratch, n int) {
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
			ref := &replayState{res: newResult("drain"), blockState: make([]uint8, numBlocks)}
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

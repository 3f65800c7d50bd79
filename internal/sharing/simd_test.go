package sharing

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sharellc/internal/cache"
)

func TestParseSIMD(t *testing.T) {
	for s, want := range map[string]SIMD{"auto": SIMDAuto, "swar": SIMDSWAR, "off": SIMDOff} {
		v, err := ParseSIMD(s)
		if err != nil || v != want {
			t.Errorf("ParseSIMD(%q) = %v, %v; want %v", s, v, err, want)
		}
		if v.String() != s {
			t.Errorf("SIMD(%v).String() = %q, want %q", v, v.String(), s)
		}
	}
	_, err := ParseSIMD("avx2")
	if err == nil {
		t.Fatal("ParseSIMD accepted an unknown tier")
	}
	for _, want := range []string{"avx2", "auto", "swar", "off"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseSIMD error %q does not mention %q", err, want)
		}
	}
}

// simdTiersAgree replays every prefix of full through configs at every
// SIMD tier — off (the PR 9 scalar paths, the reference), swar and auto
// — and demands byte-equal Results across all three.
func simdTiersAgree(t *testing.T, full []cache.AccessInfo, configs []LLCConfig, opt Options) {
	t.Helper()
	eachPrefix(full, func(stream []cache.AccessInfo) {
		optRef := opt
		optRef.Kernel, optRef.SIMD = KernelBatch, SIMDOff
		ref, err := ReplayMulti(stream, configs, optRef)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range []SIMD{SIMDSWAR, SIMDAuto} {
			optT := opt
			optT.Kernel, optT.SIMD = KernelBatch, tier
			got, err := ReplayMulti(stream, configs, optT)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Errorf("len %d, config %d (%s @ %d ways), tier %v: result differs from scalar\ngot: %+v\nref: %+v",
						len(stream), i, configs[i].NewPolicy().Name(), configs[i].Ways, tier, got[i], ref[i])
				}
			}
		}
	})
}

// TestSIMDTiersBitIdentical replays every experiment family — the full
// policy catalogue (shardable and two-phase lanes), a hooked lane and
// the 128-way sequential fallback — at all three SIMD tiers and both
// tracker representations, and demands byte-equal Results at every
// prefix.
func TestSIMDTiersBitIdentical(t *testing.T) {
	stream := synthStream(40000, 3000, 8, 21)
	var hooks int
	configs := batchTestConfigs(t, 64*cache.KB, 8, &hooks)
	for _, tr := range []Tracker{TrackerSoA, TrackerStruct} {
		simdTiersAgree(t, stream, configs, Options{Tracker: tr, Shards: 4})
	}
}

// TestSIMDEnvCap pins the EnableSIMD cap (the SHARELLC_SIMD escape
// hatch): with the cap at off, a SIMDAuto replay runs the scalar paths
// and still produces identical Results; the cap never lowers an
// already-stricter option.
func TestSIMDEnvCap(t *testing.T) {
	if SIMD(simdCap.Load()) != SIMDAuto {
		t.Skip("SHARELLC_SIMD set in the environment")
	}
	stream := synthStream(20000, 1500, 8, 23)
	var hooks int
	configs := batchTestConfigs(t, 32*cache.KB, 8, &hooks)[:2]
	opt := Options{Shards: 4, Kernel: KernelBatch}
	auto, err := ReplayMulti(stream, configs, opt)
	if err != nil {
		t.Fatal(err)
	}
	prev := EnableSIMD(SIMDOff)
	defer EnableSIMD(prev)
	if got := resolveSIMD(SIMDAuto); got != nil {
		t.Fatal("cap off: resolveSIMD(auto) still returned kernels")
	}
	if got := resolveSIMD(SIMDSWAR); got != nil {
		t.Fatal("cap off: resolveSIMD(swar) still returned kernels")
	}
	capped, err := ReplayMulti(stream, configs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range auto {
		if !reflect.DeepEqual(auto[i], capped[i]) {
			t.Errorf("config %d: capped-off replay differs from auto replay", i)
		}
	}
	EnableSIMD(SIMDSWAR)
	if got := resolveSIMD(SIMDOff); got != nil {
		t.Fatal("cap swar: resolveSIMD(off) returned kernels (cap must not raise the tier)")
	}
	if got := resolveSIMD(SIMDAuto); got != &swarOps {
		t.Fatal("cap swar: resolveSIMD(auto) did not return the SWAR kernels")
	}
}

// closeDrainScratch builds a batchScratch holding n synthetic captured
// evictions drawn from rng over numBlocks blocks, shared by both drain
// paths under test.
func closeDrainScratch(rng *rand.Rand, n, numBlocks int) *batchScratch {
	bs := &batchScratch{
		ecw:        make([]uint64, batchSize),
		ehits:      make([]uint64, batchSize),
		eid:        make([]uint32, batchSize),
		cw:         make([]uint64, batchSize),
		edeg:       make([]uint8, batchSize),
		eord:       make([]uint16, batchSize),
		ops:        &swarOps,
		closeShift: closeShiftFor(numBlocks),
	}
	for k := 0; k < n; k++ {
		// Core/write words with 0–3 core bits (degrees 0..3 cover the
		// private/shared and RO/RW branches) plus a random store flag.
		var cw uint64
		for b := rng.Intn(4); b > 0; b-- {
			cw |= uint64(1) << rng.Intn(soaMaxCores)
		}
		if rng.Intn(2) == 1 {
			cw |= cwWritten
		}
		bs.ecw[k] = cw
		bs.ehits[k] = uint64(rng.Intn(100))
		bs.eid[k] = uint32(rng.Intn(numBlocks))
	}
	return bs
}

// closeDrainState builds a replayState with a fresh result and block
// census for the drain comparison.
func closeDrainState(numBlocks int) *replayState {
	return &replayState{
		res:        newResult("drain"),
		blockState: make([]uint8, numBlocks),
	}
}

// FuzzCloseDrain fuzzes the batched close drain directly against the
// inline flushClosed on identical capture columns: entry counts at and
// around the chunk boundary (zero evictions, a full chunk of them) and
// census sizes straddling the bucket-shift boundary. Counters and
// census bytes must come out identical — the bucket permutation must be
// invisible.
func FuzzCloseDrain(f *testing.F) {
	f.Add(uint16(0), uint64(1))
	f.Add(uint16(1), uint64(2))
	f.Add(uint16(batchSize), uint64(3))
	f.Add(uint16(batchSize-1), uint64(4))
	f.Add(uint16(100), uint64(5))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed uint64) {
		n := int(nRaw)
		if n > batchSize {
			n = batchSize
		}
		for _, numBlocks := range []int{closeBuckets - 1, closeBuckets * 40} {
			rng := rand.New(rand.NewSource(int64(seed)))
			bs := closeDrainScratch(rng, n, numBlocks)
			ref := closeDrainState(numBlocks)
			got := closeDrainState(numBlocks)
			ref.flushClosed(bs, n)
			got.flushClosedBatched(bs, n)
			if !reflect.DeepEqual(ref.res, got.res) {
				t.Errorf("numBlocks=%d n=%d: batched drain result differs\nref: %+v\ngot: %+v",
					numBlocks, n, ref.res, got.res)
			}
			if !reflect.DeepEqual(ref.blockState, got.blockState) {
				t.Errorf("numBlocks=%d n=%d: batched drain census differs", numBlocks, n)
			}
		}
	})
}

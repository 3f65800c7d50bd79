package reuse

import (
	"runtime"
	"testing"
	"testing/quick"

	"sharellc/internal/cache"
	"sharellc/internal/oracle"
	"sharellc/internal/rng"
)

func mk(blocks ...uint64) []cache.AccessInfo {
	out := make([]cache.AccessInfo, len(blocks))
	for i, b := range blocks {
		out[i] = cache.AccessInfo{Block: b, Index: int32(i)}
	}
	return out
}

// distances returns the reuse distance of every access in stream, as
// the walk Analyze runs yields them: the exact distances the tests
// compare against their references.
func distances(stream []cache.AccessInfo) []int64 {
	out := make([]int64, len(stream))
	stream, numBlocks := cache.EnsureBlockIDs(stream)
	w := newStackWalk(len(stream), numBlocks)
	for i := range stream {
		out[i] = w.next(i, stream[i].BlockID)
	}
	w.release()
	return out
}

func TestDistancesBasic(t *testing.T) {
	// Stream: A B C A B B
	d := distances(mk(1, 2, 3, 1, 2, 2))
	want := []int64{infinite, infinite, infinite, 2, 2, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("d[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestDistancesImmediateReuse(t *testing.T) {
	d := distances(mk(7, 7, 7))
	if d[1] != 0 || d[2] != 0 {
		t.Errorf("immediate reuse distances = %v", d[1:])
	}
}

func TestDistancesEmpty(t *testing.T) {
	if len(distances(nil)) != 0 {
		t.Error("empty stream produced distances")
	}
}

// referenceDistances is the O(n²) oracle: walk backwards counting
// distinct blocks.
func referenceDistances(stream []cache.AccessInfo) []int64 {
	out := make([]int64, len(stream))
	for i := range stream {
		out[i] = infinite
		seen := map[uint64]bool{}
		for j := i - 1; j >= 0; j-- {
			if stream[j].Block == stream[i].Block {
				out[i] = int64(len(seen))
				break
			}
			seen[stream[j].Block] = true
		}
	}
	return out
}

func TestDistancesMatchReference(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 50 + rnd.Intn(300)
		stream := make([]cache.AccessInfo, n)
		for i := range stream {
			stream[i] = cache.AccessInfo{Block: rnd.Uint64n(24), Index: int32(i)}
		}
		got := distances(stream)
		want := referenceDistances(stream)
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: d[%d] = %d, want %d", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLRUHitIffDistanceUnderCapacity ties reuse distances to the cache
// model: in a fully-associative LRU cache of capacity C, an access hits
// iff its reuse distance is < C.
func TestLRUHitIffDistanceUnderCapacity(t *testing.T) {
	rnd := rng.New(12)
	const capacity = 16
	stream := make([]cache.AccessInfo, 3000)
	for i := range stream {
		stream[i] = cache.AccessInfo{Block: rnd.Uint64n(40), Index: int32(i)}
	}
	d := distances(stream)
	// Fully associative = 1 set with `capacity` ways.
	c, err := cache.NewSetAssoc(capacity*64, capacity, &cache.LRU{})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range stream {
		hit := c.Access(a).Hit
		wantHit := d[i] != infinite && d[i] < capacity
		if hit != wantHit {
			t.Fatalf("access %d (distance %d): hit=%v, want %v", i, d[i], hit, wantHit)
		}
	}
}

func TestBucketLabels(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumBuckets; i++ {
		l := BucketLabel(i)
		if l == "?" || seen[l] {
			t.Errorf("bucket %d label %q invalid or duplicate", i, l)
		}
		seen[l] = true
	}
	if BucketLabel(-1) != "?" || BucketLabel(NumBuckets) != "?" {
		t.Error("out-of-range labels not guarded")
	}
	if BucketLabel(NumBuckets-1) != "cold" {
		t.Error("last bucket not cold")
	}
}

func TestHistogramShares(t *testing.T) {
	var h Histogram
	h.add(0)        // bucket 0
	h.add(infinite) // cold
	h.add(1 << 16)  // < 1<<17 bucket
	h.add(1 << 30)  // top bucket
	if h.Total != 4 {
		t.Fatalf("total = %d", h.Total)
	}
	sum := 0.0
	for i := 0; i < NumBuckets; i++ {
		sum += h.Share(i)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	var empty Histogram
	if empty.Share(0) != 0 {
		t.Error("empty histogram share != 0")
	}
}

func TestAnalyzeSplitsByHints(t *testing.T) {
	stream := mk(1, 2, 1, 2)
	hints := []bool{true, false, true, false}
	p, err := Analyze(stream, hints)
	if err != nil {
		t.Fatal(err)
	}
	if p.All.Total != 4 || p.Shared.Total != 2 || p.Private.Total != 2 {
		t.Errorf("totals = %d/%d/%d", p.All.Total, p.Shared.Total, p.Private.Total)
	}
	if _, err := Analyze(stream, []bool{true}); err == nil {
		t.Error("mismatched hints accepted")
	}
	pNil, err := Analyze(stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pNil.Private.Total != 4 || pNil.Shared.Total != 0 {
		t.Error("nil hints not all-private")
	}
}

// TestReuseAnalyzeAllocPooled is C2's byte gate: once the mem pool is
// warm, one workload's C2 — the oracle's hint column and Analyze over it
// — allocates that column and the Profile plus a constant. The Fenwick
// tree (4 bytes per access) and the last-position table (4 per block)
// come from the pool, and no distance is stored per access. Wired into
// CI via `go test -run Alloc`.
func TestReuseAnalyzeAllocPooled(t *testing.T) {
	const n, blocks, fixed = 1 << 18, 1 << 14, 4 << 10
	rnd := rng.New(3)
	stream := make([]cache.AccessInfo, n)
	for i := range stream {
		stream[i] = cache.AccessInfo{Block: rnd.Uint64n(blocks), Core: uint8(rnd.Intn(8)), Index: int32(i)}
	}
	cache.AnnotateNextUse(stream)
	run := func() *Profile {
		p, err := Analyze(stream, oracle.SharedHints(stream, 1<<16))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := run() // warm the mem pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := run()
	runtime.ReadMemStats(&after)
	if *got != *want {
		t.Fatalf("a warm run's profile %+v differs from the cold run's %+v", *got, *want)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("a warm C2 over %d accesses allocated %d bytes: its %d-byte hint column and %d more", n, alloc, n, int64(alloc)-n)
	if alloc > n+fixed {
		t.Errorf("a warm C2 allocated %d bytes beyond its hint column, past %d", alloc-n, fixed)
	}
}

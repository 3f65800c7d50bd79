package reuse

import (
	"math"
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

// infinite is the distance the reference reports for first-touch (cold)
// accesses.
const infinite = int64(math.MaxInt64)

// stackWalk is the reference for the bucket walk: the classic
// O(n log n) algorithm, yielding the reuse distance of each access of a
// stream in stream order. A Fenwick tree over stream positions marks
// each block's most recent access, so the marks count the distinct
// blocks seen so far, and the distance of an access is the marks after
// its block's previous access: that running count minus one prefix sum.
type stackWalk struct {
	tree     []int32 // Fenwick tree over positions, 1-based
	last     []int32 // BlockID → previous position + 1, 0 before its first access
	distinct int32   // blocks accessed so far: the marked positions
}

// newStackWalk sizes a walk over n accesses to blocks in [0, numBlocks).
func newStackWalk(n, numBlocks int) stackWalk {
	return stackWalk{tree: make([]int32, n+1), last: make([]int32, numBlocks)}
}

// next returns the distance of access i, to block id: infinite for a
// first touch. Accesses are presented in order, i = 0, 1, 2, ....
func (w *stackWalk) next(i int, id uint32) int64 {
	d := infinite
	if p := int(w.last[id]) - 1; p >= 0 {
		// Distinct blocks touched in (p, i): the marks after position
		// p, each block marked only at its most recent access.
		d = int64(w.distinct - w.sum(p))
		w.add(p, -1)
	} else {
		w.distinct++
	}
	w.add(i, 1)
	w.last[id] = int32(i + 1)
	return d
}

// add adds delta at position i (0-based).
func (w *stackWalk) add(i int, delta int32) {
	for i++; i < len(w.tree); i += i & -i {
		w.tree[i] += delta
	}
}

// sum returns the prefix sum over positions [0, i] (0-based, inclusive).
func (w *stackWalk) sum(i int) int32 {
	var s int32
	for i++; i > 0; i -= i & -i {
		s += w.tree[i]
	}
	return s
}

// bucketOf maps a distance to its histogram bucket under edges: the
// first edge it lies below, len(edges) above the last, and
// len(edges)+1 for a cold access.
func bucketOf(edges []int64, d int64) int {
	if d == infinite {
		return len(edges) + 1
	}
	for i, edge := range edges {
		if d < edge {
			return i
		}
	}
	return len(edges)
}

// distances returns the reuse distance of every access in stream, from
// the Fenwick reference walk: the exact distances the tests compare
// against their references.
func distances(stream []cache.AccessInfo) []int64 {
	out := make([]int64, len(stream))
	stream, numBlocks := cache.EnsureBlockIDs(stream)
	w := newStackWalk(len(stream), numBlocks)
	for i := range stream {
		out[i] = w.next(i, stream[i].BlockID)
	}
	return out
}

// walkBuckets returns the bucket of every access in stream under edges,
// from the walk Analyze runs.
func walkBuckets(stream []cache.AccessInfo, edges []int64) []int {
	out := make([]int, len(stream))
	stream, numBlocks := cache.EnsureBlockIDs(stream)
	w := newBucketWalk(len(stream), numBlocks, edges)
	for i := range stream {
		out[i] = w.next(i, stream[i].BlockID)
	}
	w.release()
	return out
}

// checkWalk fails t at the first access whose bucket under edges the
// walk and the Fenwick reference disagree on.
func checkWalk(t *testing.T, name string, stream []cache.AccessInfo, edges []int64) {
	t.Helper()
	got := walkBuckets(stream, edges)
	for i, d := range distances(stream) {
		if want := bucketOf(edges, d); got[i] != want {
			t.Fatalf("%s, edges %v: access %d (distance %d) in bucket %d, want %d", name, edges, i, d, got[i], want)
		}
	}
}

// cyclic returns a stream that sweeps blocks 0..m-1 two and a half
// times: every reuse has distance m-1.
func cyclic(m int) []cache.AccessInfo {
	out := make([]cache.AccessInfo, 5*m/2)
	for i := range out {
		out[i] = cache.AccessInfo{Block: uint64(i % m), Index: int32(i)}
	}
	return out
}

// TestBucketWalkMatchesStackWalk holds the bucket walk to the Fenwick
// reference: on cyclic streams of e-1, e and e+1 blocks for every edge
// e, whose distances sit on either side of it (the 512K-edge streams
// are skipped under -short), and through Analyze, hints and all, on
// random streams whose block counts cross the 1K and 8K edges.
func TestBucketWalkMatchesStackWalk(t *testing.T) {
	for _, e := range bucketEdges {
		if testing.Short() && e >= 1<<19 {
			continue
		}
		for _, m := range []int{int(e) - 1, int(e), int(e) + 1} {
			checkWalk(t, "cyclic", cyclic(m), bucketEdges)
		}
	}
	rnd := rng.New(9)
	for _, blocks := range []uint64{900, 1100, 7000, 9000, 20000} {
		stream := make([]cache.AccessInfo, 60000)
		for i := range stream {
			// Half the accesses go to a hot tenth of the blocks, so
			// short and long distances mix.
			b := rnd.Uint64n(blocks)
			if rnd.Intn(2) == 0 {
				b = rnd.Uint64n(blocks/10 + 1)
			}
			stream[i] = cache.AccessInfo{Block: b, Core: uint8(rnd.Intn(8)), Index: int32(i)}
		}
		checkWalk(t, "random", stream, bucketEdges)
		cache.AnnotateNextUse(stream)
		hints := oracle.SharedHints(stream, 1<<12)
		var want Profile
		for i, d := range distances(stream) {
			b := bucketOf(bucketEdges, d)
			want.All.add(b)
			if hints[i] {
				want.Shared.add(b)
			} else {
				want.Private.add(b)
			}
		}
		got, err := Analyze(stream, hints)
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Errorf("%d blocks: Analyze's profile %+v, the reference's %+v", blocks, *got, want)
		}
		if want.Shared.Total == 0 || want.Private.Total == 0 {
			t.Errorf("%d blocks: the hints split the stream %d shared / %d private; want both classes", blocks, want.Shared.Total, want.Private.Total)
		}
	}
}

// FuzzReuseBuckets holds the bucket walk to the Fenwick reference under
// tiny edges, over short fuzzed streams: each byte of data is an access
// to one of 32 blocks, and each of the five low nibbles of gaps spaces
// one edge 1 to 4 blocks above the last, from 0.
func FuzzReuseBuckets(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 3, 0, 4, 5, 1}, uint32(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint32(0x01010100))
	f.Add([]byte{7, 7, 3, 7, 31, 3, 30, 7, 0, 3}, uint32(0x12345))
	f.Fuzz(func(t *testing.T, data []byte, gaps uint32) {
		edges := make([]int64, 5)
		edge := int64(0)
		for k := range edges {
			edge += int64(gaps>>(4*k)&15)%4 + 1
			edges[k] = edge
		}
		stream := make([]cache.AccessInfo, len(data))
		for i, b := range data {
			stream[i] = cache.AccessInfo{Block: uint64(b & 31), Index: int32(i)}
		}
		checkWalk(t, "fuzzed", stream, edges)
	})
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
	for _, d := range []int64{
		0,        // bucket 0
		infinite, // cold
		1 << 16,  // < 1<<17 bucket
		1 << 30,  // top bucket
	} {
		h.add(bucketOf(bucketEdges, d))
	}
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
// — allocates that column and the Profile plus a constant. The walk's
// bitmap (1 bit per access) and last-position table (4 bytes per block)
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

package streamcache

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"sharellc/internal/cache"
	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// TestCoherenceSameBuiltOrReloaded holds C1 to one answer whichever way
// a suite got its streams: built in process, where C1 reads the census
// the build took, or reloaded from the snapshots that build wrote, where
// C1 regenerates every trace. All 22 workloads at scale 0.02, seeds 1
// and 2.
func TestCoherenceSameBuiltOrReloaded(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		dir := t.TempDir()
		rows := make([][]sim.CoherenceRow, 2)
		for i := range rows {
			c := New(Options{Dir: dir})
			cfg := sim.Config{Machine: cache.DefaultConfig(), Seed: seed, Scale: 0.02, Streams: c.Stream}
			s, err := sim.NewSuite(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if i == 0 && st.Builds != 22 || i == 1 && (st.Builds != 0 || st.DiskHits != 22) {
				t.Fatalf("seed %d, suite %d: %d builds, %d snapshot loads", seed, i, st.Builds, st.DiskHits)
			}
			if rows[i], err = s.CoherenceCharacterize(); err != nil {
				t.Fatal(err)
			}
		}
		if len(rows[0]) != 22 || !reflect.DeepEqual(rows[0], rows[1]) {
			t.Errorf("seed %d: C1 on the built suite\n%+v\non the reloaded one\n%+v", seed, rows[0], rows[1])
		}
	}
}

// TestColdBuildAllocBounded is the byte gate of a cold stream build: once
// the mem pool is warm, building one scale-0.05 model into an empty
// snapshot store allocates its stream plus a constant, at most
// coldBuildFixed — the builder's first 1 MiB segment, the private
// hierarchy, the generator's tables, the filter's batch and the snapshot
// writer's 64 KiB buffer (the census and the numbering tables come from
// the mem pool). The constant is pinned by a build of the same
// model with a sixteenth of its trace: the longer build may allocate at
// most its longer stream and coldBuildSlack more, so a cost that grows
// with the stream's records or blocks — a hash index numbering them, a
// snapshot image rendered before it is written — breaks the bound even
// where the fixed costs hide it. Wired into CI via `go test -run Alloc`.
func TestColdBuildAllocBounded(t *testing.T) {
	const coldBuildFixed, coldBuildSlack = 2 << 20, 32 << 10
	m := testModel(t, "canneal", 0.05)
	short := m
	short.AccessesPerThread /= 16
	build := func(m workloads.Model) (stream, alloc uint64) {
		var before, after runtime.MemStats
		c := New(Options{Dir: t.TempDir()})
		runtime.ReadMemStats(&before)
		s, err := c.Stream(context.Background(), m, cache.DefaultConfig(), 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Builds != 1 || st.BytesWritten == 0 {
			t.Fatalf("cold build: %+v", st)
		}
		return uint64(len(s.Accesses)) * uint64(unsafe.Sizeof(cache.AccessInfo{})), after.TotalAlloc - before.TotalAlloc
	}
	build(m) // warm the mem pool
	stream, n := build(m)
	shortStream, shortN := build(short)
	t.Logf("a cold build allocated %d bytes: its %d-byte stream and %d more; with a sixteenth of the trace, %d: its %d-byte stream and %d more",
		n, stream, int64(n-stream), shortN, shortStream, int64(shortN-shortStream))
	if n > stream+coldBuildFixed {
		t.Errorf("a cold build allocated %d bytes more than its stream, past %d", n-stream, coldBuildFixed)
	}
	if grow := int64(n-shortN) - int64(stream-shortStream); grow > coldBuildSlack {
		t.Errorf("the longer trace added %d bytes beyond its longer stream, past %d", grow, coldBuildSlack)
	}
}

package streamcache

import (
	"context"
	"math/rand"
	"path/filepath"
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
// the mem pool is warm, building one model into an empty snapshot store
// allocates its stream plus a constant, at most coldBuildFixed — the
// private hierarchy, the generator's tables, the filter's batch and the
// snapshot writer's 64 KiB buffer (the builder's segments, the census and
// the numbering tables come from the mem pool). The constant is pinned
// by a build of the same model with a sixteenth of its trace: the longer
// build may allocate at most its longer stream and coldBuildSlack more,
// so a cost that grows with the stream's records or blocks — a hash index
// numbering them, a snapshot image rendered before it is written, a
// segment allocated or copied twice — breaks the bound even where the
// fixed costs hide it. Two models: scale-0.05 canneal, whose stream fits
// the builder's first segment, and a streamcluster stream spanning at
// least four. Wired into CI via `go test -run Alloc`.
func TestColdBuildAllocBounded(t *testing.T) {
	const coldBuildFixed, coldBuildSlack = 1 << 20, 32 << 10
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
	for _, tc := range []struct {
		name     string
		scale    float64
		segments int // the builder's 1 MiB segments the stream spans, at least
	}{
		{"canneal", 0.05, 1},
		{"streamcluster", 0.15, 4},
	} {
		m := testModel(t, tc.name, tc.scale)
		short := m
		short.AccessesPerThread /= 16
		build(m) // warm the mem pool
		stream, n := build(m)
		shortStream, shortN := build(short)
		t.Logf("%s: a cold build allocated %d bytes: its %d-byte stream and %d more; with a sixteenth of the trace, %d: its %d-byte stream and %d more",
			tc.name, n, stream, int64(n-stream), shortN, shortStream, int64(shortN-shortStream))
		if stream <= uint64(tc.segments-1)<<20 {
			t.Fatalf("%s: the %d-byte stream spans fewer than %d segments", tc.name, stream, tc.segments)
		}
		if n > stream+coldBuildFixed {
			t.Errorf("%s: a cold build allocated %d bytes more than its stream, past %d", tc.name, n-stream, coldBuildFixed)
		}
		if grow := int64(n-shortN) - int64(stream-shortStream); grow > coldBuildSlack {
			t.Errorf("%s: the longer trace added %d bytes beyond its longer stream, past %d", tc.name, grow, coldBuildSlack)
		}
	}
}

// TestSnapshotLoadAllocBounded is the byte gate of a snapshot load: a
// load allocates its stream plus a constant — the reader's 64 KiB buffer,
// the file handle and the Stream — and never the file's bytes whole.
// Wired into CI via `go test -run Alloc`.
func TestSnapshotLoadAllocBounded(t *testing.T) {
	const fixed = snapshotBuf + 8<<10
	s := randomStream(rand.New(rand.NewSource(9)), 1<<17)
	key := Key(s.Model, cache.DefaultConfig(), 1)
	path := filepath.Join(t.TempDir(), key+snapshotExt)
	size, err := writeSnapshot(path, key, s)
	if err != nil {
		t.Fatal(err)
	}
	loadSnapshot(path, key, s.Model) // first-call setup outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, _, ok := loadSnapshot(path, key, s.Model)
	runtime.ReadMemStats(&after)
	if !ok || !sameStream(got, s) {
		t.Fatal("the snapshot does not load back to its stream")
	}
	stream := uint64(len(s.Accesses)) * uint64(unsafe.Sizeof(cache.AccessInfo{}))
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("loading a %d-byte snapshot allocated %d bytes: its %d-byte stream and %d more", size, alloc, stream, int64(alloc-stream))
	if alloc > stream+fixed {
		t.Errorf("a load allocated %d bytes beyond its stream, past %d", alloc-stream, fixed)
	}
}

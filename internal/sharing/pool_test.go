package sharing

import (
	"runtime"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/mem"
	"sharellc/internal/policy"
)

// drainPool empties T's list of the mem pool and returns the arrays it
// held longer than one element. The pool keeps at most 64 arrays per
// type, and a one-element Grab takes one of them while any is left.
func drainPool[T any]() [][]T {
	var held [][]T
	for range 65 {
		if s := mem.Grab[T](1); cap(s) > 1 {
			held = append(held, s)
		}
	}
	return held
}

// restorePool releases what drainPool took.
func restorePool[T any](held [][]T) {
	for _, s := range held {
		mem.Release(s)
	}
}

// warmAllocBytes runs replay once to warm the mem pool, then returns
// the bytes a second run allocates (runtime.MemStats.TotalAlloc).
func warmAllocBytes(t *testing.T, replay func()) uint64 {
	t.Helper()
	replay()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPolicyPassAllocCatalogueLanes pins that a lane's policy state is
// recycled: once the mem pool is warm, a shared-hit replay of all 14
// catalogue lanes at the F4 geometry (4 MB, 16 ways) allocates fewer
// bytes than one lane's LRU stamps (sets*ways words) would take alone.
// Wired into CI via `go test -run Alloc`.
func TestPolicyPassAllocCatalogueLanes(t *testing.T) {
	const size, ways = 4 * cache.MB, 16
	stream := synthStream(60000, 3000, 8, 7)
	sets, err := cache.Geometry(size, ways)
	if err != nil {
		t.Fatal(err)
	}
	stamps := uint64(sets * ways * 8)
	var configs []LLCConfig
	for _, name := range policy.Names(1) {
		configs = append(configs, LLCConfig{Size: size, Ways: ways, NewPolicy: catalogued(t, name, 1)})
	}
	n := warmAllocBytes(t, func() {
		if _, err := ReplayMulti(stream, configs, Options{Shards: 1, Tier: SharedHitsOnly}); err != nil {
			t.Fatal(err)
		}
	})
	if n >= stamps {
		t.Errorf("a warm %d-lane replay allocated %d bytes, not below one lane's %d bytes of LRU stamps", len(configs), n, stamps)
	} else {
		t.Logf("a warm %d-lane replay allocated %d bytes (LRU stamps %d)", len(configs), n, stamps)
	}
}

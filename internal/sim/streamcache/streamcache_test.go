package streamcache

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// testModel returns a small scaled workload for fast builds.
func testModel(t *testing.T, name string, scale float64) workloads.Model {
	t.Helper()
	m, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m.Scaled(scale)
}

func TestKeyIgnoresLLCGeometry(t *testing.T) {
	m := testModel(t, "canneal", 0.01)
	base := cache.DefaultConfig()
	big := base
	big.LLCSize, big.LLCWays = 8*cache.MB, 32
	k1 := Key(m, base, 1)
	k2 := Key(m, big, 1)
	if k1 != k2 {
		t.Errorf("key depends on LLC geometry: %s vs %s", k1, k2)
	}
}

func TestKeySeparatesInputs(t *testing.T) {
	m := testModel(t, "canneal", 0.01)
	base := cache.DefaultConfig()
	ref := Key(m, base, 1)
	l1 := base
	l1.L1Size = 64 * cache.KB
	for what, k := range map[string]string{
		"model":   Key(testModel(t, "swaptions", 0.01), base, 1),
		"scale":   Key(testModel(t, "canneal", 0.02), base, 1),
		"seed":    Key(m, base, 2),
		"L1 size": Key(m, l1, 1),
	} {
		if k == ref {
			t.Errorf("key does not separate %s", what)
		}
	}
}

// TestSingleflightHammer: 16 goroutines demand the same stream
// concurrently; exactly one build must run and everyone must get the
// same *sim.Stream value.
func TestSingleflightHammer(t *testing.T) {
	c := New(Options{}) // memory-only
	var builds atomic.Int64
	gate := make(chan struct{})
	c.buildHook = func(string) {
		builds.Add(1)
		<-gate // hold the build open until every waiter has coalesced
	}

	m := testModel(t, "canneal", 0.01)
	machine := cache.DefaultConfig()

	const goroutines = 16
	var (
		wg      sync.WaitGroup
		builder sync.WaitGroup
		streams [goroutines + 1]*sim.Stream
		errs    [goroutines + 1]error
	)
	// One known builder first, parked inside the build hook.
	builder.Add(1)
	go func() {
		defer builder.Done()
		streams[goroutines], errs[goroutines] = c.Stream(context.Background(), m, machine, 1)
	}()
	for builds.Load() == 0 {
		runtime.Gosched()
	}
	// Then the hammer: 16 goroutines that must all coalesce onto the
	// parked build. Coalesced is incremented before a waiter blocks, so
	// polling it synchronizes the gate exactly.
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i], errs[i] = c.Stream(context.Background(), m, machine, 1)
		}(i)
	}
	for c.Stats().Coalesced < goroutines {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	builder.Wait()

	for i := range streams {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if streams[i] != streams[0] {
			t.Errorf("goroutine %d got a different stream pointer", i)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("builds = %d, want exactly 1", n)
	}
	st := c.Stats()
	if st.Builds != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want Builds=1 Misses=1", st)
	}
	if st.Coalesced != goroutines {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, goroutines)
	}

	// A second round of the same key is all process-level hits.
	if _, err := c.Stream(context.Background(), m, machine, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Hits; got == 0 {
		t.Errorf("hits = %d after warm lookup, want > 0", got)
	}
}

// TestSingleflightPerKey: distinct keys build independently, once each,
// under concurrent demand.
func TestSingleflightPerKey(t *testing.T) {
	c := New(Options{})
	builds := map[string]*atomic.Int64{}
	var mu sync.Mutex
	c.buildHook = func(key string) {
		mu.Lock()
		n, ok := builds[key]
		if !ok {
			n = &atomic.Int64{}
			builds[key] = n
		}
		mu.Unlock()
		n.Add(1)
	}
	machine := cache.DefaultConfig()
	models := []workloads.Model{
		testModel(t, "canneal", 0.01),
		testModel(t, "swaptions", 0.01),
		testModel(t, "barnes", 0.01),
	}
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		for _, m := range models {
			wg.Add(1)
			go func(m workloads.Model) {
				defer wg.Done()
				if _, err := c.Stream(context.Background(), m, machine, 1); err != nil {
					t.Error(err)
				}
			}(m)
		}
	}
	wg.Wait()
	if len(builds) != len(models) {
		t.Fatalf("built %d distinct keys, want %d", len(builds), len(models))
	}
	for key, n := range builds {
		if n.Load() != 1 {
			t.Errorf("key %s built %d times, want 1", key[:12], n.Load())
		}
	}
}

// TestMemBudgetEviction: a budget that holds only one stream evicts the
// least recently used entry and keeps the accounting exact.
func TestMemBudgetEviction(t *testing.T) {
	machine := cache.DefaultConfig()
	a := testModel(t, "canneal", 0.01)
	b := testModel(t, "swaptions", 0.01)

	// Size the budget between one and two of the streams involved.
	sa, err := sim.BuildStream(a, machine, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sim.BuildStream(b, machine, 1)
	if err != nil {
		t.Fatal(err)
	}
	bigger := streamBytes(sa)
	if streamBytes(sb) > bigger {
		bigger = streamBytes(sb)
	}

	c := New(Options{MemBudget: bigger + 1})
	ctx := context.Background()
	if _, err := c.Stream(ctx, a, machine, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(ctx, b, machine, 1); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats after overflow = %+v, want 1 eviction, 1 entry", st)
	}
	if st.BytesInMem != uint64(streamBytes(sb)) {
		t.Errorf("BytesInMem = %d, want %d (only the second stream resident)", st.BytesInMem, streamBytes(sb))
	}
	// The evicted key rebuilds (a miss), the resident one hits.
	if _, err := c.Stream(ctx, b, machine, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(ctx, a, machine, 1); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want 1 (resident stream)", st.Hits)
	}
	if st.Builds != 3 {
		t.Errorf("Builds = %d, want 3 (a, b, a again after eviction)", st.Builds)
	}
}

// TestOversizedStreamStillServes: a stream larger than the whole budget
// is still returned and briefly cached (the newest entry is never the
// eviction victim).
func TestOversizedStreamStillServes(t *testing.T) {
	c := New(Options{MemBudget: 1})
	m := testModel(t, "canneal", 0.01)
	s, err := c.Stream(context.Background(), m, cache.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Accesses) == 0 {
		t.Fatal("empty stream")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want the oversized stream resident", st.Entries)
	}
}

// TestBuildErrorNotCached: a failing build propagates its error but a
// later request retries rather than being served a cached failure.
func TestBuildErrorNotCached(t *testing.T) {
	c := New(Options{})
	bad := testModel(t, "canneal", 0.01)
	bad.Threads = cache.DefaultConfig().Cores + 1 // exceeds machine cores
	if _, err := c.Stream(context.Background(), bad, cache.DefaultConfig(), 1); err == nil {
		t.Fatal("want error for over-threaded model")
	}
	var builds atomic.Int64
	c.buildHook = func(string) { builds.Add(1) }
	if _, err := c.Stream(context.Background(), bad, cache.DefaultConfig(), 1); err == nil {
		t.Fatal("want error on retry too")
	}
	if builds.Load() != 1 {
		t.Errorf("retry did not attempt a fresh build")
	}
}

// TestWaiterSurvivesBuilderCancellation: when the goroutine doing the
// build has its context cancelled, a coalesced waiter with a live
// context retries and completes instead of inheriting the cancellation.
func TestWaiterSurvivesBuilderCancellation(t *testing.T) {
	c := New(Options{})
	m := testModel(t, "canneal", 0.01)
	machine := cache.DefaultConfig()
	key := Key(m, machine, 1)

	// Simulate the aftermath of a cancelled builder: an inflight entry
	// that resolves to context.Canceled.
	fl := &flight{done: make(chan struct{})}
	c.mu.Lock()
	c.inflight[key] = fl
	c.mu.Unlock()

	res := make(chan error, 1)
	go func() {
		_, err := c.Stream(context.Background(), m, machine, 1)
		res <- err
	}()

	// Resolve the fake build as cancelled, clearing the inflight slot
	// the way a real builder does.
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	fl.err = context.Canceled
	close(fl.done)

	if err := <-res; err != nil {
		t.Fatalf("waiter inherited builder cancellation: %v", err)
	}
	if st := c.Stats(); st.Builds != 1 {
		t.Errorf("builds = %d, want 1 (the waiter's retry)", st.Builds)
	}
}

// TestWaiterContextCancellation: a waiter whose own context dies while
// coalesced returns promptly with its context error.
func TestWaiterContextCancellation(t *testing.T) {
	c := New(Options{})
	gate := make(chan struct{})
	c.buildHook = func(string) { <-gate }
	defer close(gate)

	m := testModel(t, "canneal", 0.01)
	machine := cache.DefaultConfig()
	go c.Stream(context.Background(), m, machine, 1) // builder, parked on gate

	// Wait until the build is in flight.
	key := Key(m, machine, 1)
	for {
		c.mu.Lock()
		_, ok := c.inflight[key]
		c.mu.Unlock()
		if ok {
			break
		}
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Stream(ctx, m, machine, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProviderPlugsIntoSuite: a cache-backed suite is identical to a
// plain one, and a second construction is served without any build.
func TestProviderPlugsIntoSuite(t *testing.T) {
	c := New(Options{Dir: t.TempDir()})
	cfg := sim.Config{
		Machine: cache.DefaultConfig(),
		Seed:    1,
		Scale:   0.01,
		Models: []workloads.Model{
			testModel(t, "canneal", 1),
			testModel(t, "swaptions", 1),
		},
	}
	plain, err := sim.NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Streams = c.Stream
	warm1, err := sim.NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSuitesIdentical(t, plain, warm1)
	if st := c.Stats(); st.Builds != 2 {
		t.Fatalf("builds = %d, want 2", st.Builds)
	}
	warm2, err := sim.NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSuitesIdentical(t, plain, warm2)
	st := c.Stats()
	if st.Builds != 2 {
		t.Errorf("second suite construction rebuilt streams: builds = %d", st.Builds)
	}
	if st.Hits != 2 {
		t.Errorf("hits = %d, want 2", st.Hits)
	}
}

// assertSuitesIdentical demands bit-identical streams (every AccessInfo
// field, via struct equality) and identical hierarchy counters.
func assertSuitesIdentical(t *testing.T, want, got *sim.Suite) {
	t.Helper()
	if len(want.Streams) != len(got.Streams) {
		t.Fatalf("stream count %d vs %d", len(got.Streams), len(want.Streams))
	}
	for i, w := range want.Streams {
		g := got.Streams[i]
		if g.Model != w.Model {
			t.Errorf("stream %d: model differs", i)
		}
		if g.NumBlocks != w.NumBlocks || g.TraceLen != w.TraceLen || g.L1Hits != w.L1Hits || g.L2Hits != w.L2Hits {
			t.Errorf("stream %d: header differs: %+v vs %+v",
				i, []uint64{uint64(g.NumBlocks), g.TraceLen, g.L1Hits, g.L2Hits},
				[]uint64{uint64(w.NumBlocks), w.TraceLen, w.L1Hits, w.L2Hits})
		}
		if len(g.Accesses) != len(w.Accesses) {
			t.Errorf("stream %d: length %d vs %d", i, len(g.Accesses), len(w.Accesses))
			continue
		}
		for j := range w.Accesses {
			if g.Accesses[j] != w.Accesses[j] {
				t.Errorf("stream %d access %d: %+v vs %+v", i, j, g.Accesses[j], w.Accesses[j])
				break
			}
		}
	}
}

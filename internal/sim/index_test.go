package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sharellc/internal/cache"
	"sharellc/internal/report"
	"sharellc/internal/workloads"
)

func indexTestSuite(t *testing.T) *Suite {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	models, err := ModelsByName([]string{"canneal", "swaptions"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Models = models
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExperimentIndexComplete(t *testing.T) {
	want := []string{"config", "suite", "f1", "f2", "f3", "f4", "f5", "f7", "f8", "f9",
		"c1", "c2", "m1", "a1", "a2", "a3", "a4", "a5"}
	if got := ExperimentIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ExperimentIDs() = %v, want %v", got, want)
	}
	for _, e := range Experiments() {
		if e.Run == nil {
			t.Errorf("experiment %s has no runner", e.ID)
		}
		if e.Title == "" {
			t.Errorf("experiment %s has no title", e.ID)
		}
	}
}

func TestExperimentByIDUnknown(t *testing.T) {
	_, err := ExperimentByID("nonesuch")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	if !strings.Contains(err.Error(), "valid ids") || !strings.Contains(err.Error(), "f1") {
		t.Errorf("error %q does not enumerate valid ids", err)
	}
	if _, err := ExperimentByID("F1"); err != nil {
		t.Errorf("ids should be case-insensitive: %v", err)
	}
}

func TestStaticExperimentsRunWithoutSuite(t *testing.T) {
	for _, id := range []string{"config", "suite"} {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if e.NeedsSuite {
			t.Errorf("%s should not need a suite", id)
		}
		tables, err := e.Run(nil, DefaultExpOptions())
		if err != nil || len(tables) != 1 {
			t.Errorf("%s: tables=%d err=%v", id, len(tables), err)
		}
	}
}

func TestModelsByNameUnknown(t *testing.T) {
	_, err := ModelsByName([]string{"doom"})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	if !strings.Contains(err.Error(), "valid workloads") {
		t.Errorf("error %q does not enumerate valid workloads", err)
	}
}

// withContext returns a shallow copy of s whose experiment runs are
// cancelled when ctx is, as a suite built by NewSuiteContext(ctx) is.
func withContext(s *Suite, ctx context.Context) *Suite {
	c := *s
	c.ctx = ctx
	return &c
}

// TestSuiteContextCancelsExperiments: a suite carrying a cancelled
// context refuses to run, and a mid-flight cancellation aborts an
// experiment promptly with the context's error.
func TestSuiteContextCancelsExperiments(t *testing.T) {
	s := indexTestSuite(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := withContext(s, ctx).Characterize(256*cache.KB, 8); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Characterize: err = %v, want context.Canceled", err)
	}

	// Mid-flight: cancel once the first progress callback fires. The
	// fused F4 has only one work unit per workload, so pin the outer
	// fan-out to a single worker: unit 1 completes, fires the callback,
	// and the sequential claim loop must then see the cancelled context
	// before touching unit 2.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var once sync.Once
	s2 := withContext(s, ctx2).withProgress(func(done, total int, label string) {
		once.Do(cancel2)
	})
	start := time.Now()
	_, err := s2.ComparePolicies(256*cache.KB, 8, nil)
	if err == nil {
		t.Fatal("ComparePolicies completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestWithProgressReportsEveryCell: the progress callback sees every
// completed cell exactly once and ends at done == total.
func TestWithProgressReportsEveryCell(t *testing.T) {
	s := indexTestSuite(t)
	var mu sync.Mutex
	var got []int
	total := -1
	s2 := s.withProgress(func(done, tot int, label string) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, done)
		total = tot
	})
	if _, err := s2.Characterize(256*cache.KB, 8); err != nil {
		t.Fatal(err)
	}
	if total != len(s.Streams) || len(got) != total {
		t.Fatalf("progress: %d callbacks, total %d, want %d", len(got), total, len(s.Streams))
	}
	seen := map[int]bool{}
	for _, d := range got {
		if d < 1 || d > total || seen[d] {
			t.Errorf("bad done sequence %v", got)
			break
		}
		seen[d] = true
	}
}

// TestWithContextDoesNotPerturbResults guards the serving layer's core
// invariant: the same suite produces bit-identical rows with and
// without context/progress plumbing attached.
func TestWithContextDoesNotPerturbResults(t *testing.T) {
	s := indexTestSuite(t)
	base, err := s.Characterize(256*cache.KB, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := withContext(s, context.Background()).
		withProgress(func(int, int, string) {}).
		Characterize(256*cache.KB, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("rows diverge with ctx/progress attached")
	}
}

// TestRunExperimentsBuildsSuiteOnlyWhenNeeded: static experiments run
// without preparing a suite, a stream-reading one prepares it, and an
// unknown id fails before any experiment runs.
func TestRunExperimentsBuildsSuiteOnlyWhenNeeded(t *testing.T) {
	bad := Config{} // scale 0: preparing a suite from it fails
	var got []*report.Table
	emit := func(tables []*report.Table) error { got = append(got, tables...); return nil }
	run := func(ids ...string) error {
		got = nil
		return RunExperiments(context.Background(), bad, ids, DefaultExpOptions(), nil, emit)
	}
	if err := run("config", "suite"); err != nil || len(got) != 2 {
		t.Errorf("static experiments: %d tables, err %v; want 2 tables", len(got), err)
	}
	if err := run("config", "f1"); err == nil || len(got) != 0 {
		t.Errorf("f1 on an unpreparable config: %d tables, err %v; want a preparation error first", len(got), err)
	}
	if err := run("config", "nope"); err == nil || len(got) != 0 {
		t.Errorf("unknown id: %d tables, err %v; want an error before any table", len(got), err)
	}
}

// TestRunExperimentsPreparesOnlyReadStreams: the direct path asks its
// stream provider only for streams some requested spec reads. m1 builds
// its own mixes and reads none; a5 reads its six-workload subset under
// each of three seeds, and neither prepares the 22 suite streams.
func TestRunExperimentsPreparesOnlyReadStreams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	for _, c := range []struct {
		id    string
		calls int
	}{{"m1", 0}, {"a5", 18}} {
		var calls atomic.Int64
		cfg.Streams = func(_ context.Context, m workloads.Model, machine cache.Config, seed uint64) (*Stream, error) {
			calls.Add(1)
			return BuildStream(m, machine, seed)
		}
		var tables []*report.Table
		if err := RunExperiments(context.Background(), cfg, []string{c.id}, DefaultExpOptions(), nil,
			func(ts []*report.Table) error { tables = append(tables, ts...); return nil }); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if len(tables) != 1 || len(tables[0].Rows) != 3 {
			t.Errorf("%s: %d tables, want one of 3 rows", c.id, len(tables))
		}
		if got := calls.Load(); got != int64(c.calls) {
			t.Errorf("%s: %d stream provider calls, want %d", c.id, got, c.calls)
		}
	}
}

package streamcache

import (
	"os"
	"strconv"
	"testing"
	"time"

	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// benchScale reads SHARELLC_BENCH_SCALE (a workload scale factor) so CI
// and bench.sh can run the speedup measurements at full size; tests and
// default benchmark runs use a reduced suite that keeps the same 22
// workloads but shrinks regions and trace lengths proportionally.
func benchScale(def float64) float64 {
	if v := os.Getenv("SHARELLC_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return def
}

// suiteConfig is the full 22-workload suite served through c.
func suiteConfig(c *Cache, scale float64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scale = scale
	cfg.Streams = c.Stream
	return cfg
}

// TestWarmSuiteSpeedup is the PR's acceptance benchmark in test form:
// constructing the full 22-workload suite from snapshots must be at
// least 5× faster than building it cold, and the warm suite must be
// bit-identical to the cold one.
func TestWarmSuiteSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	dir := t.TempDir()
	scale := benchScale(0.05)

	cold := New(Options{Dir: dir})
	start := time.Now()
	coldSuite, err := sim.NewSuite(suiteConfig(cold, scale))
	if err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(start)
	if st := cold.Stats(); st.Builds != uint64(len(coldSuite.Streams)) {
		t.Fatalf("cold construction built %d of %d streams", st.Builds, len(coldSuite.Streams))
	}

	// A fresh Cache on the same directory models a new process: the
	// in-memory level is empty, every stream comes off disk. Take the
	// best of three constructions so one scheduling hiccup cannot fail
	// the ratio check.
	warmDur := time.Duration(1<<63 - 1)
	var warmSuite *sim.Suite
	for i := 0; i < 3; i++ {
		warm := New(Options{Dir: dir})
		start = time.Now()
		ws, err := sim.NewSuite(suiteConfig(warm, scale))
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < warmDur {
			warmDur = d
		}
		if st := warm.Stats(); st.Builds != 0 || st.DiskHits != uint64(len(ws.Streams)) {
			t.Fatalf("warm construction was not snapshot-only: %+v", st)
		}
		warmSuite = ws
	}

	assertSuitesIdentical(t, coldSuite, warmSuite)
	t.Logf("scale %v: cold %v, warm %v (%.1fx)", scale, coldDur, warmDur, float64(coldDur)/float64(warmDur))
	if coldDur < 5*warmDur {
		t.Errorf("warm suite construction only %.1fx faster than cold (cold %v, warm %v), want >= 5x",
			float64(coldDur)/float64(warmDur), coldDur, warmDur)
	}
}

// BenchmarkSuiteBuildCold measures full-suite construction with no cache
// at all — the pre-PR baseline every invocation paid.
func BenchmarkSuiteBuildCold(b *testing.B) {
	scale := benchScale(0.05)
	cfg := sim.DefaultConfig()
	cfg.Scale = scale
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewSuite(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// frontEndModel is the mid-sized application the two per-reference
// benchmarks below run: it touches all four region kinds (Zipf private
// and read-only reuse, the read-write sweep, locks).
func frontEndModel(b *testing.B) workloads.Model {
	m, err := workloads.ByName("bodytrack")
	if err != nil {
		b.Fatal(err)
	}
	return m.Scaled(benchScale(1))
}

// BenchmarkBuildStream is the cold path's front end for one application
// — generate, filter through the private hierarchy, annotate — reported
// per raw reference.
func BenchmarkBuildStream(b *testing.B) {
	m := frontEndModel(b)
	for i := 0; i < b.N; i++ {
		if _, err := sim.BuildStream(m, sim.DefaultConfig().Machine, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m.TotalAccesses()), "ns/ref")
}

// BenchmarkCoherenceCharacterize is C1 for one application — generate,
// MESI directory — reported per raw reference.
func BenchmarkCoherenceCharacterize(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Models = []workloads.Model{frontEndModel(b)}
	s, err := sim.NewSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.CoherenceCharacterize(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Models[0].TotalAccesses()), "ns/ref")
}

// BenchmarkSuiteBuildWarm measures full-suite construction against a
// populated snapshot directory, with the process level emptied every
// iteration — the steady state of repeated CLI runs.
func BenchmarkSuiteBuildWarm(b *testing.B) {
	dir := b.TempDir()
	scale := benchScale(0.05)
	if _, err := sim.NewSuite(suiteConfig(New(Options{Dir: dir}), scale)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Options{Dir: dir})
		if _, err := sim.NewSuite(suiteConfig(c, scale)); err != nil {
			b.Fatal(err)
		}
		if st := c.Stats(); st.Builds != 0 {
			b.Fatalf("warm iteration rebuilt %d streams", st.Builds)
		}
	}
}

// BenchmarkSuiteBuildHot measures construction when the streams are
// already resident in the process level — the daemon's steady state.
func BenchmarkSuiteBuildHot(b *testing.B) {
	scale := benchScale(0.05)
	c := New(Options{})
	if _, err := sim.NewSuite(suiteConfig(c, scale)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewSuite(suiteConfig(c, scale)); err != nil {
			b.Fatal(err)
		}
	}
}

package streamcache

import (
	"os"
	"strconv"
	"syscall"
	"testing"
	"time"

	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// benchScale reads SHARELLC_BENCH_SCALE (a workload scale factor) so a
// run can take the speedup measurements at full size; tests and
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

// cpuTime is the user+system CPU time this process has used so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestWarmSuiteSpeedup is the PR's acceptance benchmark in test form:
// constructing the full 22-workload suite from snapshots must cost at
// most a fifth of building it cold, and the warm suite must be
// bit-identical to the cold one. The cost is process CPU time, not wall
// time: `go test ./...` runs this package while sibling packages compile
// and test on the same cores, which stretches a ~10 ms warm wall-clock
// measurement severalfold but leaves the CPU this process spends on it
// where it was.
func TestWarmSuiteSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	dir := t.TempDir()
	scale := benchScale(0.05)

	cold := New(Options{Dir: dir})
	start := cpuTime(t)
	coldSuite, err := sim.NewSuite(suiteConfig(cold, scale))
	if err != nil {
		t.Fatal(err)
	}
	coldCPU := cpuTime(t) - start
	if st := cold.Stats(); st.Builds != uint64(len(coldSuite.Streams)) {
		t.Fatalf("cold construction built %d of %d streams", st.Builds, len(coldSuite.Streams))
	}

	// A fresh Cache on the same directory models a new process: the
	// in-memory level is empty, every stream comes off disk. The warm
	// cost is the mean over several constructions, so the measured span
	// is long against the CPU clock's resolution.
	const warmRuns = 5
	var warmSuite *sim.Suite
	start = cpuTime(t)
	for i := 0; i < warmRuns; i++ {
		warm := New(Options{Dir: dir})
		ws, err := sim.NewSuite(suiteConfig(warm, scale))
		if err != nil {
			t.Fatal(err)
		}
		if st := warm.Stats(); st.Builds != 0 || st.DiskHits != uint64(len(ws.Streams)) {
			t.Fatalf("warm construction was not snapshot-only: %+v", st)
		}
		warmSuite = ws
	}
	warmCPU := (cpuTime(t) - start) / warmRuns

	assertSuitesIdentical(t, coldSuite, warmSuite)
	t.Logf("scale %v: cold %v CPU, warm %v CPU (%.1fx)", scale, coldCPU, warmCPU, float64(coldCPU)/float64(warmCPU))
	if coldCPU < 5*warmCPU {
		t.Errorf("warm suite construction only %.1fx cheaper than cold (cold %v CPU, warm %v CPU), want >= 5x",
			float64(coldCPU)/float64(warmCPU), coldCPU, warmCPU)
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

// BenchmarkCoherenceCharacterize is C1 for one application whose stream
// was loaded from a snapshot, so it carries no census from its build:
// regenerate the trace, drain it through the census tee — reported per
// raw reference. (On a stream built in process C1 reads the build's
// census, which BenchmarkBuildStream already times.)
func BenchmarkCoherenceCharacterize(b *testing.B) {
	dir := b.TempDir()
	cfg := sim.DefaultConfig()
	cfg.Models = []workloads.Model{frontEndModel(b)}
	cfg.Streams = New(Options{Dir: dir}).Stream
	if _, err := sim.NewSuite(cfg); err != nil {
		b.Fatal(err)
	}
	c := New(Options{Dir: dir})
	cfg.Streams = c.Stream
	s, err := sim.NewSuite(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		b.Fatalf("the suite did not load its stream from the snapshot: %+v", st)
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

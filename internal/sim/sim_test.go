package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/par"
	"sharellc/internal/predictor"
	"sharellc/internal/sharing"
	"sharellc/internal/stats"
	"sharellc/internal/workloads"
)

// testConfig returns a heavily scaled-down setup so the whole experiment
// pipeline runs in well under a second: a small machine and 3 workloads at
// 2% scale.
func testConfig(t *testing.T) Config {
	t.Helper()
	models := make([]workloads.Model, 0, 3)
	for _, name := range []string{"canneal", "streamcluster", "swaptions"} {
		m, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return Config{
		Machine: cache.Config{
			Cores:  8,
			L1Size: 2 * cache.KB, L1Ways: 2,
			L2Size: 8 * cache.KB, L2Ways: 4,
			LLCSize: 64 * cache.KB, LLCWays: 8,
		},
		Seed:   1,
		Scale:  0.02,
		Models: models,
	}
}

const (
	tSize = 64 * cache.KB
	tWays = 8
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSuiteBuildsStreams(t *testing.T) {
	s := testSuite(t)
	if len(s.Streams) != 3 {
		t.Fatalf("built %d streams, want 3", len(s.Streams))
	}
	for _, st := range s.Streams {
		if len(st.Accesses) == 0 {
			t.Errorf("%s: empty LLC stream", st.Model.Name)
		}
		if st.TraceLen != uint64(st.Model.TotalAccesses()) {
			t.Errorf("%s: trace length %d, want %d", st.Model.Name, st.TraceLen, st.Model.TotalAccesses())
		}
		// The private hierarchy must filter substantially: LLC stream
		// is a strict subset of raw references.
		if uint64(len(st.Accesses)) >= st.TraceLen {
			t.Errorf("%s: hierarchy filtered nothing", st.Model.Name)
		}
		// Streams must be NextUse-annotated for OPT.
		annotated := false
		for _, a := range st.Accesses {
			if a.NextUse != cache.NoNextUse {
				annotated = true
				break
			}
		}
		if !annotated {
			t.Errorf("%s: stream not next-use annotated", st.Model.Name)
		}
	}
}

func TestNewSuiteValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Scale = 0
	if _, err := NewSuite(cfg); err == nil {
		t.Error("zero scale accepted")
	}
	cfg = testConfig(t)
	cfg.Machine.Cores = 4 // fewer cores than workload threads
	if _, err := NewSuite(cfg); err == nil {
		t.Error("thread/core mismatch accepted")
	}
}

func TestCharacterize(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Characterize(tSize, tWays)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]CharRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		if r.Hits+r.Misses != r.Accesses {
			t.Errorf("%s: hit/miss mismatch", r.Workload)
		}
		if r.SharedHitFrac < 0 || r.SharedHitFrac > 1 {
			t.Errorf("%s: shared hit frac %v", r.Workload, r.SharedHitFrac)
		}
	}
	// Sharing-heavy canneal must show far more shared hits than
	// private-dominated swaptions.
	if byName["canneal"].SharedHitFrac <= byName["swaptions"].SharedHitFrac {
		t.Errorf("canneal shared-hit %.3f <= swaptions %.3f",
			byName["canneal"].SharedHitFrac, byName["swaptions"].SharedHitFrac)
	}
}

func TestComparePolicies(t *testing.T) {
	s := testSuite(t)
	rows, err := s.ComparePolicies(tSize, tWays, []string{"lru", "srrip", "opt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	misses := map[string]map[string]uint64{}
	for _, r := range rows {
		if misses[r.Workload] == nil {
			misses[r.Workload] = map[string]uint64{}
		}
		misses[r.Workload][r.Policy] = r.Misses
		if r.Policy == "lru" && r.MissesVsLRU != 1.0 {
			t.Errorf("%s: LRU normalized to %v", r.Workload, r.MissesVsLRU)
		}
	}
	for w, m := range misses {
		if m["opt"] > m["lru"] || m["opt"] > m["srrip"] {
			t.Errorf("%s: OPT (%d) not the minimum (lru %d, srrip %d)", w, m["opt"], m["lru"], m["srrip"])
		}
	}
}

func TestComparePoliciesUnknownName(t *testing.T) {
	s := testSuite(t)
	if _, err := s.ComparePolicies(tSize, tWays, []string{"bogus"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestOracleStudy(t *testing.T) {
	s := testSuite(t)
	rows, err := s.OracleStudy(tSize, tWays, []string{"lru"}, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BaseMisses == 0 {
			t.Errorf("%s: no base misses", r.Workload)
		}
	}
	// The mean across the suite subset should be non-negative: oracle
	// protection should help or be neutral overall.
	var reds []float64
	for _, r := range rows {
		reds = append(reds, r.Reduction)
	}
	if m := stats.Mean(reds); m < -0.02 {
		t.Errorf("mean oracle reduction %.4f is materially negative", m)
	}
}

func TestReuseDistances(t *testing.T) {
	s := testSuite(t)
	rows, err := s.reuseDistances(tSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SharedTotal+r.PrivateTotal == 0 {
			t.Errorf("%s: no accesses classified", r.Workload)
		}
		sum := 0.0
		for b := range r.PrivateShares {
			sum += r.PrivateShares[b]
		}
		if r.PrivateTotal > 0 && (sum < 0.999 || sum > 1.001) {
			t.Errorf("%s: private shares sum to %v", r.Workload, sum)
		}
	}
	var b strings.Builder
	if err := reuseTable("c2", rows).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cold") {
		t.Error("reuse table missing cold bucket")
	}
}

func TestCoherenceCharacterize(t *testing.T) {
	s := testSuite(t)
	rows, err := s.CoherenceCharacterize()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]CoherenceRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		if r.Refs == 0 {
			t.Errorf("%s: no references", r.Workload)
		}
	}
	// Sharing-heavy canneal must show far more coherence traffic than
	// private swaptions.
	if byName["canneal"].C2CTransfersPKR <= byName["swaptions"].C2CTransfersPKR {
		t.Errorf("canneal c2c %.3f <= swaptions %.3f",
			byName["canneal"].C2CTransfersPKR, byName["swaptions"].C2CTransfersPKR)
	}
	var b strings.Builder
	if err := coherenceTable("c1", rows).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "MESI") {
		t.Error("coherence table note missing")
	}
}

func TestSharingPhases(t *testing.T) {
	s := testSuite(t)
	rows, err := s.sharingPhases(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]phaseRow{}
	for _, r := range rows {
		byName[r.Workload] = r
		if r.FlipRate < 0 || r.FlipRate > 1 {
			t.Errorf("%s: flip rate %v", r.Workload, r.FlipRate)
		}
		if r.Windows != 16 {
			t.Errorf("%s: windows = %d", r.Workload, r.Windows)
		}
	}
	// Sharing-phased canneal must be less stable than private swaptions.
	if byName["canneal"].MixedFrac <= byName["swaptions"].MixedFrac {
		t.Errorf("canneal mixed %.3f <= swaptions %.3f",
			byName["canneal"].MixedFrac, byName["swaptions"].MixedFrac)
	}
	var b strings.Builder
	if err := phaseTable("f9", rows).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "flip rate") {
		t.Error("phase table note missing")
	}
}

func TestOracleHorizonSweep(t *testing.T) {
	s := testSuite(t)
	rows, err := s.oracleHorizonSweep(tSize, tWays, []int{1, 4}, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Factor != 1 && r.Factor != 4 {
			t.Errorf("unexpected factor %d", r.Factor)
		}
	}
	if _, err := s.oracleHorizonSweep(tSize, tWays, []int{0}, core.Options{}); err == nil {
		t.Error("factor 0 accepted")
	}
	var b strings.Builder
	if err := horizonTable("a4", rows).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mean reduction by horizon") {
		t.Error("horizon table note missing")
	}
}

func TestPredictorAccuracy(t *testing.T) {
	s := testSuite(t)
	rows, err := s.PredictorAccuracy(tSize, tWays, predictor.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*len(predictorNames()) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Pred.Total() == 0 {
			t.Errorf("%s/%s: no classified residencies", r.Workload, r.Predictor)
		}
		switch r.Predictor {
		case "always":
			if r.Recall != 1 && r.Pred.TP+r.Pred.FN > 0 {
				t.Errorf("always-predictor recall = %v", r.Recall)
			}
		case "never":
			if r.Pred.TP != 0 || r.Pred.FP != 0 {
				t.Errorf("never-predictor made positive predictions")
			}
		}
	}
}

func TestPredictorDriven(t *testing.T) {
	s := testSuite(t)
	rows, err := s.PredictorDriven(tSize, tWays, predictor.DefaultConfig(), []string{"addr"}, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BaseMisses == 0 || r.DrivenMisses == 0 {
			t.Errorf("%s: zero misses", r.Workload)
		}
	}
}

func TestTablesRender(t *testing.T) {
	s := testSuite(t)
	char, err := s.Characterize(tSize, tWays)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := s.ComparePolicies(tSize, tWays, []string{"lru", "opt"})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := s.OracleStudy(tSize, tWays, []string{"lru"}, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := s.PredictorAccuracy(tSize, tWays, predictor.DefaultConfig(), []string{"addr"})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := s.PredictorDriven(tSize, tWays, predictor.DefaultConfig(), []string{"addr"}, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []interface {
		Render(w interface {
			Write(p []byte) (int, error)
		}) error
	}{} {
		_ = tb
	}
	var b strings.Builder
	for _, err := range []error{
		charTable("f1", char).Render(&b),
		degreeTable("f3", char).Render(&b),
		policyTable("f4", pol).Render(&b),
		oracleTable("f5", orc).Render(&b),
		predictorTable("f7", acc).Render(&b),
		drivenTable("f8", drv).Render(&b),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	out := b.String()
	for _, want := range []string{"f1", "f3", "f4", "f5", "f7", "f8", "canneal", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q", want)
		}
	}
}

// parallel runs f(0..n-1) on the process's worker pool and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	return par.For(context.Background(), n, f)
}

func TestParallelHelper(t *testing.T) {
	n := 100
	out := make([]int, n)
	if err := parallel(n, func(i int) error { out[i] = i + 1; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestParallelPropagatesError(t *testing.T) {
	err := parallel(50, func(i int) error {
		if i == 20 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Errorf("got %v, want errTest", err)
	}
	if err := parallel(0, func(int) error { return nil }); err != nil {
		t.Errorf("n=0 returned %v", err)
	}
}

var errTest = errors.New("sim test: injected failure")

func TestSuiteDeterministicAcrossRuns(t *testing.T) {
	a := testSuite(t)
	b := testSuite(t)
	for i := range a.Streams {
		if len(a.Streams[i].Accesses) != len(b.Streams[i].Accesses) {
			t.Fatalf("stream %d lengths differ", i)
		}
		for j := range a.Streams[i].Accesses {
			if a.Streams[i].Accesses[j] != b.Streams[i].Accesses[j] {
				t.Fatalf("stream %d diverged at %d", i, j)
			}
		}
	}
}

func TestMultiprogrammedOracleIsNull(t *testing.T) {
	cfg := testConfig(t)
	var mix []workloads.Model
	for _, name := range []string{"swaptions", "blackscholes", "water", "freqmine"} {
		m, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, m.Scaled(0.02))
	}
	rows, err := MultiprogrammedOracle(context.Background(), [][]workloads.Model{mix}, cfg.Machine, 1, tSize, tWays, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.BaseSharedHitFrac != 0 {
		t.Errorf("multiprogrammed mix has shared hits: %v", r.BaseSharedHitFrac)
	}
	if r.Reduction != 0 {
		t.Errorf("oracle changed a shareless mix: reduction %v", r.Reduction)
	}
	if r.Protector.ProtectedFills != 0 {
		t.Errorf("oracle protected %d fills with no sharing", r.Protector.ProtectedFills)
	}
}

func TestBuildMixStreamValidation(t *testing.T) {
	cfg := testConfig(t)
	m, err := workloads.ByName("water")
	if err != nil {
		t.Fatal(err)
	}
	m = m.Scaled(0.02)
	tooMany := make([]workloads.Model, cfg.Machine.Cores+1)
	for i := range tooMany {
		tooMany[i] = m
	}
	if _, err := buildMixStream(tooMany, cfg.Machine, 1); err == nil {
		t.Error("mix larger than core count accepted")
	}
	st, err := buildMixStream([]workloads.Model{m, m}, cfg.Machine, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Model.Threads != 2 || len(st.Accesses) == 0 {
		t.Errorf("mix stream malformed: threads=%d len=%d", st.Model.Threads, len(st.Accesses))
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Machine.Cores != 8 || cfg.Seed != 1 || cfg.Scale != 1 || len(cfg.Models) != 0 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
}

func TestParallelSingleWorkerPath(t *testing.T) {
	// n=1 runs on the caller regardless of GOMAXPROCS.
	ran := false
	if err := parallel(1, func(int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("serial path did not run")
	}
	wantErr := errTest
	if err := parallel(1, func(int) error { return wantErr }); err != wantErr {
		t.Errorf("serial path error = %v", err)
	}
}

// TestDecouplingApproximation quantifies DESIGN.md key decision 1: the
// experiment pipeline replays a fixed LLC stream (no inclusive
// back-invalidation feedback), while cache.System models full inclusion.
// The two must agree on LLC misses within a loose band — the approximation
// trades a small distortion for an identical stream across policies.
func TestDecouplingApproximation(t *testing.T) {
	cfg := testConfig(t)
	m := cfg.Models[0].Scaled(cfg.Scale)
	r, err := m.Generate(cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cache.NewSystem(cfg.Machine, &cache.LRU{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		a, ok := r.Next()
		if !ok {
			break
		}
		if _, err := sys.Access(a); err != nil {
			t.Fatal(err)
		}
	}
	_, sysMisses := sys.LLCStats()

	st, err := BuildStream(m, cfg.Machine, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	lru := sharing.LLCConfig{Size: cfg.Machine.LLCSize, Ways: cfg.Machine.LLCWays,
		NewPolicy: func() cache.Policy { return &cache.LRU{} }}
	results, err := sharing.ReplayMulti(st.Accesses, []sharing.LLCConfig{lru}, sharing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	lo, hi := float64(sysMisses)*0.7, float64(sysMisses)*1.3
	if got := float64(res.Misses); got < lo || got > hi {
		t.Errorf("decoupled misses %d vs inclusive-system misses %d: outside ±30%%", res.Misses, sysMisses)
	}
}

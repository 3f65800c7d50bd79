package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"sharellc/internal/core"
	"sharellc/internal/predictor"
	"sharellc/internal/workloads"
)

// setProcs sets GOMAXPROCS, and with it the helper budget of the
// process's worker pool (GOMAXPROCS-1 goroutines beside the caller), for
// the rest of the test and restores the previous value when it ends.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// suiteAtProcs builds the small test suite at GOMAXPROCS=procs and
// leaves GOMAXPROCS there for the rest of the test.
func suiteAtProcs(t *testing.T, procs int) *Suite {
	t.Helper()
	setProcs(t, procs)
	return testSuite(t)
}

// experimentRunners enumerates every experiment family over the test
// suite's workloads. Each runner returns its full row slice so the
// differential test can demand bit-identical output.
func experimentRunners() []struct {
	name string
	run  func(s *Suite) (any, error)
} {
	return []struct {
		name string
		run  func(s *Suite) (any, error)
	}{
		{"characterize", func(s *Suite) (any, error) {
			return s.Characterize(tSize, tWays)
		}},
		// nil names = the full catalogue: per-set and cross-set
		// policies in the same replay.
		{"compare-policies", func(s *Suite) (any, error) {
			return s.ComparePolicies(tSize, tWays, nil)
		}},
		{"oracle-study", func(s *Suite) (any, error) {
			return s.OracleStudy(tSize, tWays, []string{"lru", "srrip"}, core.Options{Strength: core.Full})
		}},
		{"oracle-horizon-sweep", func(s *Suite) (any, error) {
			return s.oracleHorizonSweep(tSize, tWays, []int{1, 4}, core.Options{Strength: core.Full})
		}},
		{"predictor-accuracy", func(s *Suite) (any, error) {
			return s.PredictorAccuracy(tSize, tWays, predictor.DefaultConfig(), nil)
		}},
		{"predictor-driven", func(s *Suite) (any, error) {
			return s.PredictorDriven(tSize, tWays, predictor.DefaultConfig(), []string{"addr", "coherence"}, core.Options{Strength: core.Full})
		}},
		{"reuse-distances", func(s *Suite) (any, error) {
			return s.reuseDistances(tSize)
		}},
		{"sharing-phases", func(s *Suite) (any, error) {
			return s.sharingPhases(8)
		}},
		{"coherence-characterize", func(s *Suite) (any, error) {
			return s.CoherenceCharacterize()
		}},
	}
}

// TestExperimentsShardingInvariant is the differential determinism test
// of the worker pool's schedule: every experiment family must produce
// identical rows, on suites built at the same setting, whether the pool
// has no helper (GOMAXPROCS=1: every workload and lane on the caller) or
// three (GOMAXPROCS=4), and identical rows again on a repeated
// GOMAXPROCS=1 run (no hidden run-to-run state).
func TestExperimentsShardingInvariant(t *testing.T) {
	seq := suiteAtProcs(t, 1)
	four := suiteAtProcs(t, 4)
	rep := suiteAtProcs(t, 1)
	for _, ex := range experimentRunners() {
		t.Run(ex.name, func(t *testing.T) {
			setProcs(t, 1)
			want, err := ex.run(seq)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			setProcs(t, 4)
			got, err := ex.run(four)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("GOMAXPROCS=4 rows differ from GOMAXPROCS=1:\nseq: %+v\npar: %+v", want, got)
			}
			setProcs(t, 1)
			again, err := ex.run(rep)
			if err != nil {
				t.Fatalf("repeat: %v", err)
			}
			if !reflect.DeepEqual(want, again) {
				t.Errorf("repeated sequential run differs:\nrun1: %+v\nrun2: %+v", want, again)
			}
		})
	}
}

// TestMultiprogrammedOracleShardingInvariant covers the one experiment
// entry point that does not go through a Suite: its mix builds and
// replays give the same rows at GOMAXPROCS 1 and 4.
func TestMultiprogrammedOracleShardingInvariant(t *testing.T) {
	cfg := testConfig(t)
	var mix []workloads.Model
	for _, name := range []string{"swaptions", "blackscholes"} {
		m, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, m.Scaled(0.02))
	}
	mixes := [][]workloads.Model{mix, mix[:1]}
	setProcs(t, 1)
	want, err := MultiprogrammedOracle(context.Background(), mixes, cfg.Machine, cfg.Seed, tSize, tWays, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 4)
	got, err := MultiprogrammedOracle(context.Background(), mixes, cfg.Machine, cfg.Seed, tSize, tWays, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("multiprogrammed oracle rows differ between GOMAXPROCS 1 and 4:\none:  %+v\nfour: %+v", want, got)
	}
}

// TestPredictorAccuracyBuildsNoPartition: F7 (counts only) and F1
// (tracked) run every lane as its policy pass over the stream in stream
// order, with no partition; at GOMAXPROCS=4 their rows must equal
// GOMAXPROCS=1's.
func TestPredictorAccuracyBuildsNoPartition(t *testing.T) {
	one, four := suiteAtProcs(t, 1), suiteAtProcs(t, 4)
	for _, run := range []func(s *Suite) (any, error){
		func(s *Suite) (any, error) { return s.PredictorAccuracy(tSize, tWays, predictor.DefaultConfig(), nil) },
		func(s *Suite) (any, error) { return s.Characterize(tSize, tWays) },
	} {
		setProcs(t, 1)
		want, err := run(one)
		if err != nil {
			t.Fatal(err)
		}
		setProcs(t, 4)
		got, err := run(four)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rows at GOMAXPROCS=4 differ from GOMAXPROCS=1's\nfour: %+v\none:  %+v", got, want)
		}
	}
}

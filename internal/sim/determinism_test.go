package sim

import (
	"context"
	"reflect"
	"testing"

	"sharellc/internal/core"
	"sharellc/internal/predictor"
	"sharellc/internal/workloads"
)

// suiteWithShards builds the small test suite with an explicit per-replay
// shard request.
func suiteWithShards(t *testing.T, shards int) *Suite {
	t.Helper()
	cfg := testConfig(t)
	cfg.Shards = shards
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
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
// of the replay engine's worker bound: every experiment family must produce
// identical rows whether each replay runs on one worker (Shards=1) or
// four (Shards=4 on the 128-set test LLC), and identical rows again on a
// repeated one-worker run (no hidden run-to-run state).
func TestExperimentsShardingInvariant(t *testing.T) {
	seq := suiteWithShards(t, 1)
	shd := suiteWithShards(t, 4)
	rep := suiteWithShards(t, 1)
	for _, ex := range experimentRunners() {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			want, err := ex.run(seq)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			got, err := ex.run(shd)
			if err != nil {
				t.Fatalf("sharded: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("sharded rows differ from sequential:\nseq: %+v\nshd: %+v", want, got)
			}
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
// entry point that does not go through a Suite.
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
	mixes := [][]workloads.Model{mix}
	want, err := MultiprogrammedOracle(context.Background(), mixes, cfg.Machine, cfg.Seed, tSize, tWays, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MultiprogrammedOracle(context.Background(), mixes, cfg.Machine, cfg.Seed, tSize, tWays, core.Options{Strength: core.Full})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("repeated multiprogrammed oracle runs differ:\nrun1: %+v\nrun2: %+v", want, got)
	}
}

// TestPredictorAccuracyBuildsNoPartition: F7 (counts only) and F1
// (tracked) run every lane as its policy pass over the stream in stream
// order, with no partition; on a Shards: 4 suite their rows must equal
// a one-worker suite's.
func TestPredictorAccuracyBuildsNoPartition(t *testing.T) {
	one, four := suiteWithShards(t, 1), suiteWithShards(t, 4)
	for _, run := range []func(s *Suite) (any, error){
		func(s *Suite) (any, error) { return s.PredictorAccuracy(tSize, tWays, predictor.DefaultConfig(), nil) },
		func(s *Suite) (any, error) { return s.Characterize(tSize, tWays) },
	} {
		want, err := run(one)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(four)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rows at four workers differ from one worker's\nfour: %+v\none:  %+v", got, want)
		}
	}
}

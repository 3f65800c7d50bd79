package sim

import (
	"context"
	"reflect"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/policy"
	"sharellc/internal/predictor"
	"sharellc/internal/sharing"
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
		// nil names = the full catalogue, so the per-set policies take
		// the sharded route while DRRIP/SHiP/Random run two-phase in the
		// same replay.
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
// of the set-sharded replay engine: every experiment family must produce
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

// TestPredictorAccuracyUsesStreamPartitions: F7's replay takes the
// suite's shard request and the stream's cached partitions like every
// other experiment. After PredictorAccuracy on a Shards: 4 suite, each
// stream's partition cache holds exactly the shard count a replay of
// the scored lane under the same options asks for.
func TestPredictorAccuracyUsesStreamPartitions(t *testing.T) {
	s := suiteWithShards(t, 4)
	if _, err := s.PredictorAccuracy(tSize, tWays, predictor.DefaultConfig(), nil); err != nil {
		t.Fatal(err)
	}
	for _, st := range s.Streams {
		lane, _, err := predictor.ScoredLane(tSize, tWays, func() cache.Policy { return policy.NewLRUPolicy() }, nil)
		if err != nil {
			t.Fatal(err)
		}
		asked := 0
		opt := s.replayOpts(st, 4)
		opt.Partitioner = func(n int) (*sharing.PartitionIndex, error) {
			asked = n
			return sharing.BuildPartition(st.Accesses, n)
		}
		if _, err := sharing.ReplayMulti(st.Accesses, []sharing.LLCConfig{lane}, opt); err != nil {
			t.Fatal(err)
		}
		st.partMu.Lock()
		var cached []int
		for n := range st.parts {
			cached = append(cached, n)
		}
		st.partMu.Unlock()
		if len(cached) != 1 || cached[0] != asked {
			t.Errorf("%s: partition cache holds %v shard counts, want [%d]", st.Model.Name, cached, asked)
		}
	}
}

package sharellc_test

import (
	"reflect"
	"testing"

	"sharellc"
	"sharellc/internal/core"
	"sharellc/internal/oracle"
	"sharellc/internal/sharing"
)

// apiSuite builds a tiny suite through the public facade only.
func apiSuite(t *testing.T) *sharellc.Suite {
	t.Helper()
	cfg := sharellc.Config{
		Machine: sharellc.MachineConfig{
			Cores:  8,
			L1Size: 2 * sharellc.KB, L1Ways: 2,
			L2Size: 8 * sharellc.KB, L2Ways: 4,
			LLCSize: 64 * sharellc.KB, LLCWays: 8,
		},
		Seed:   1,
		Scale:  0.02,
		Models: []sharellc.Model{sharellc.MustWorkload("canneal")},
	}
	s, err := sharellc.NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFacadeWorkloads(t *testing.T) {
	if len(sharellc.Workloads()) < 12 {
		t.Error("suite too small")
	}
	if len(sharellc.WorkloadNames()) != len(sharellc.Workloads()) {
		t.Error("WorkloadNames mismatch")
	}
	if _, err := sharellc.WorkloadByName("canneal"); err != nil {
		t.Error(err)
	}
	if _, err := sharellc.WorkloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustWorkload did not panic on unknown name")
		}
	}()
	sharellc.MustWorkload("nope")
}

func TestFacadePolicies(t *testing.T) {
	names := sharellc.PolicyNames()
	if len(names) != 14 {
		t.Fatalf("catalogue has %d policies", len(names))
	}
	f, err := sharellc.PolicyByName("ship", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f().Name() != "ship" {
		t.Error("wrong policy built")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	s := apiSuite(t)
	st := s.Streams[0]
	lru, err := sharellc.PolicyByName("lru", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sharellc.OracleRun(st, 64*sharellc.KB, 8,
		func() sharellc.Policy { return lru() },
		sharellc.ProtectorOptions{Strength: sharellc.Full})
	if err != nil {
		t.Fatal(err)
	}
	if res.Base.Misses == 0 || res.Oracle.Misses == 0 {
		t.Error("oracle run produced empty results")
	}
}

// TestOracleRunStreamOptions: OracleRun replays with the stream's own
// options (its partition cache and block count), and its full result, the
// tracked census of both lanes included, equals a replay of the same lanes
// with default options, which rescans the stream and builds its own
// partitions.
func TestOracleRunStreamOptions(t *testing.T) {
	st := apiSuite(t).Streams[0]
	for _, name := range []string{"lru", "drrip"} {
		base, err := sharellc.PolicyByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := sharellc.ProtectorOptions{Strength: sharellc.Full}
		got, err := sharellc.OracleRun(st, 16*sharellc.KB, 8, func() sharellc.Policy { return base() }, opts)
		if err != nil {
			t.Fatal(err)
		}
		prot := core.NewProtectorOpts(base(), opts)
		hints := oracle.Hints(oracle.SharedHints(st.Accesses, oracle.Horizon(16*sharellc.KB, oracle.HorizonFactor)))
		results, err := sharing.ReplayMulti(st.Accesses, []sharing.LLCConfig{{Size: 16 * sharellc.KB, Ways: 8, NewPolicy: base},
			{Size: 16 * sharellc.KB, Ways: 8, NewPolicy: func() sharellc.Policy { return core.NewLane(prot, hints) }}}, sharing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := &sharellc.OracleResult{Base: results[0], Oracle: results[1], Stats: prot.Stats()}
		if want.Base.Misses <= want.Base.DistinctBlocks || want.Base.SharedHits == 0 {
			t.Fatalf("%s: the reference replay evicted nothing or shared nothing: %+v", name, want.Base)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: OracleRun = %+v / %+v, a default-options replay %+v / %+v", name, got.Base, got.Oracle, want.Base, want.Oracle)
		}
	}
}

func TestFacadeSharingAwareWrapper(t *testing.T) {
	lru, err := sharellc.PolicyByName("lru", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := sharellc.NewSharingAware(lru(), sharellc.ProtectorOptions{Strength: sharellc.Full})
	if p.Name() != "lru+sa" {
		t.Errorf("wrapper name = %q", p.Name())
	}
}

func TestFacadePredictors(t *testing.T) {
	cfg := sharellc.DefaultPredictorConfig()
	if _, err := sharellc.NewAddressPredictor(cfg); err != nil {
		t.Error(err)
	}
	if _, err := sharellc.NewPCPredictor(cfg); err != nil {
		t.Error(err)
	}
	if _, err := sharellc.NewAddressPredictor(sharellc.PredictorConfig{}); err == nil {
		t.Error("zero predictor config accepted")
	}
}

func TestFacadeDefaults(t *testing.T) {
	cfg := sharellc.DefaultConfig()
	if cfg.Machine.Cores != 8 || cfg.Scale != 1 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	m := sharellc.DefaultMachine()
	if m.LLCSize != 4*sharellc.MB || m.LLCWays != 16 {
		t.Errorf("unexpected machine: %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

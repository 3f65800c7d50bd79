package sim

import (
	"context"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/sharing"
)

// TestPinF4OPTBoundsEveryPolicy pins F4's yardstick claim: on every
// workload, Belady's OPT misses no more than any catalogue policy. Every
// catalogue policy fills on every miss, and OPT is the per-set optimum
// over such policies, so the bound is exact, not statistical. It is
// checked at scale 0.02 with the catalogue golden's 128 KB, 16-way LLC
// (goldenRequest), for seeds 1–3. So that a replay which evicts nothing
// cannot pass it vacuously, OPT must also beat LRU outright on most
// workloads: it does on 18 of 22 at each of these seeds, the other four
// (blackscholes, swaptions, barnes, water) missing only on first touch.
func TestPinF4OPTBoundsEveryPolicy(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		req := goldenRequest("f4", seed)
		cfg, err := req.Config(cache.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := req.Options()
		rows, err := s.ComparePolicies(o.LLCSize, o.LLCWays, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt := map[string]uint64{}
		for _, r := range rows {
			if r.Policy == "opt" {
				opt[r.Workload] = r.Misses
			}
		}
		if len(opt) != len(s.Streams) {
			t.Fatalf("seed %d: OPT rows for %d of %d workloads", seed, len(opt), len(s.Streams))
		}
		beaten := 0
		for _, r := range rows {
			if m := opt[r.Workload]; r.Misses < m {
				t.Errorf("seed %d, %s: %s misses %d, below OPT's %d", seed, r.Workload, r.Policy, r.Misses, m)
			} else if r.Policy == "lru" && r.Misses > m {
				beaten++
			}
		}
		if 2*beaten <= len(opt) {
			t.Errorf("seed %d: OPT beats LRU on %d of %d workloads; the LLC hardly evicts", seed, beaten, len(opt))
		}
	}
}

// TestPinM1OracleGainsNothing pins M1's result: on multiprogrammed
// mixes, whose programs share no block, the oracle gains exactly
// nothing. It hints no fill, so the hint-rate gate (internal/core) never
// lets it demote an unhinted one, and every mix's oracle lane misses
// exactly as often as its LRU base. It is checked with the catalogue
// golden's LLC (128 KB, 16 ways) for seeds 1–3, at scale 0.05: at the
// golden's 0.02 every mix's LLC stream touches each block once, so every
// policy misses on every access and the pin would hold vacuously. So
// that it cannot, LIP, which inserts every fill where a demotion puts
// it, must miss differently from LRU on some mix: it does on two of the
// three at each seed, as the oracle lane does with the gate forced open.
func TestPinM1OracleGainsNothing(t *testing.T) {
	lru, err := policy.ByName("lru", 1)
	if err != nil {
		t.Fatal(err)
	}
	lip, err := policy.ByName("lip", 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		req := JobRequest{Exp: "m1", Request: Request{LLCMB: 0.125, Ways: 16, Seed: seed, Scale: 0.05}}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		cfg, err := req.Config(cache.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := BareSuite(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := req.Options()
		rows, err := m1Rows(s, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(m1Mixes) {
			t.Fatalf("seed %d: %d M1 rows for %d mixes", seed, len(rows), len(m1Mixes))
		}
		lipDiffers := 0
		for i, r := range rows {
			if r.OracleMisses != r.BaseMisses {
				t.Errorf("seed %d, %s: the oracle misses %d, its LRU base %d; want equal", seed, r.Workload, r.OracleMisses, r.BaseMisses)
			}
			ms, err := ModelsByName(m1Mixes[i])
			if err != nil {
				t.Fatal(err)
			}
			for k := range ms {
				ms[k] = ScaleModel(ms[k], cfg.Scale)
			}
			st, err := buildMixStream(ms, cfg.Machine, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sharing.ReplayMulti(st.Accesses, []sharing.LLCConfig{
				{Size: o.LLCSize, Ways: o.LLCWays, NewPolicy: lru},
				{Size: o.LLCSize, Ways: o.LLCWays, NewPolicy: lip},
			}, sharing.Options{Tier: sharing.CountsOnly})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Misses != r.BaseMisses {
				t.Fatalf("seed %d, %s: LRU misses %d here, %d in the M1 row", seed, r.Workload, res[0].Misses, r.BaseMisses)
			}
			if res[1].Misses != res[0].Misses {
				lipDiffers++
			}
		}
		if lipDiffers == 0 {
			t.Errorf("seed %d: LIP misses as often as LRU on every mix; the pin holds vacuously", seed)
		}
	}
}

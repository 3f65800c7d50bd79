package sim

import (
	"testing"

	"sharellc/internal/cache"
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

package sharellc_test

// One benchmark per experiment of the paper's evaluation (see the
// experiment index in DESIGN.md). Each benchmark replays the prepared
// full-size workload streams through the experiment under test and
// reports the experiment's headline metric via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every table and figure's
// numbers. EXPERIMENTS.md records paper-vs-measured values.

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"sharellc"
	"sharellc/internal/sim"
)

const (
	llc4MB = 4 * sharellc.MB
	llc8MB = 8 * sharellc.MB
	ways   = 16
)

var (
	suiteOnce sync.Once
	suite     *sharellc.Suite
	suiteErr  error
)

// fullSuite prepares the full-size workload streams once and shares them
// across all benchmarks (stream preparation is workload generation, not
// the experiment under measurement).
func fullSuite(b *testing.B) *sharellc.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = sharellc.NewSuite(sharellc.DefaultConfig())
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// meanSharedHitFrac averages the shared-hit fraction across rows.
func meanSharedHitFrac(rows []sharellc.CharRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.SharedHitFrac
	}
	return sum / float64(len(rows))
}

// meanReduction averages miss reduction across oracle rows for one policy.
func meanReduction(rows []sharellc.OracleRow, pol string) float64 {
	n, sum := 0, 0.0
	for _, r := range rows {
		if r.Policy == pol {
			sum += r.Reduction
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkF1SharedHitFraction4MB regenerates F1: the shared vs. private
// split of LLC hit volume at 4 MB under LRU.
func BenchmarkF1SharedHitFraction4MB(b *testing.B) {
	s := fullSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Characterize(llc4MB, ways)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*meanSharedHitFrac(rows), "shared-hit-%")
	}
}

// BenchmarkF2SharedHitFraction8MB regenerates F2 (8 MB LLC).
func BenchmarkF2SharedHitFraction8MB(b *testing.B) {
	s := fullSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Characterize(llc8MB, ways)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*meanSharedHitFrac(rows), "shared-hit-%")
	}
}

// BenchmarkF3SharingDegree regenerates F3: the sharing-degree
// distribution of residencies and hits. The metric is the mean share of
// hits landing in residencies of degree ≥ 2.
func BenchmarkF3SharingDegree(b *testing.B) {
	s := fullSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.Characterize(llc4MB, ways)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.DegreeHitShare[1] + r.DegreeHitShare[2] + r.DegreeHitShare[3]
		}
		b.ReportMetric(100*sum/float64(len(rows)), "deg2plus-hit-%")
	}
}

// BenchmarkF4PolicyComparison regenerates F4: every catalogue policy vs.
// LRU and Belady OPT. The metric is OPT's geomean miss ratio vs. LRU
// (how much room all realistic policies leave).
func BenchmarkF4PolicyComparison(b *testing.B) {
	s := fullSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.ComparePolicies(llc4MB, ways, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Geomean of OPT's normalized misses.
		prod, n := 1.0, 0
		for _, r := range rows {
			if r.Policy == "opt" && r.MissesVsLRU > 0 {
				prod *= r.MissesVsLRU
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(math.Pow(prod, 1/float64(n)), "opt-vs-lru")
		}
	}
}

// BenchmarkComparePoliciesSuite times the full-suite F4 sweep itself —
// the table the fused multi-policy replay accelerates: one stream pass
// per workload drives every catalogue policy lane at 4 MB. The
// benchmark's policy_sweep workload is the end-to-end view of the same
// sweep; the reported row count guards against silently dropping cells
// while chasing speed.
func BenchmarkComparePoliciesSuite(b *testing.B) {
	s := fullSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.ComparePolicies(llc4MB, ways, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

// itoa is a terse strconv.Itoa alias for metric names.
func itoa(v int) string { return strconv.Itoa(v) }

// BenchmarkF5OracleLRU regenerates the headline oracle result: average
// LLC miss reduction of oracle-assisted LRU at 4 MB and 8 MB (paper:
// ~6 % and ~10 %).
func BenchmarkF5OracleLRU(b *testing.B) {
	s := fullSuite(b)
	opts := sharellc.ProtectorOptions{Strength: sharellc.Full}
	for i := 0; i < b.N; i++ {
		r4, err := s.OracleStudy(llc4MB, ways, []string{"lru"}, opts)
		if err != nil {
			b.Fatal(err)
		}
		r8, err := s.OracleStudy(llc8MB, ways, []string{"lru"}, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*meanReduction(r4, "lru"), "reduction4MB-%")
		b.ReportMetric(100*meanReduction(r8, "lru"), "reduction8MB-%")
	}
}

// BenchmarkF6OracleAnyPolicy regenerates the "oracle works with any
// policy" leg: oracle-assisted SRRIP, DRRIP and SHiP at 4 MB.
func BenchmarkF6OracleAnyPolicy(b *testing.B) {
	s := fullSuite(b)
	opts := sharellc.ProtectorOptions{Strength: sharellc.Full}
	pols := []string{"srrip", "drrip", "ship"}
	for i := 0; i < b.N; i++ {
		rows, err := s.OracleStudy(llc4MB, ways, pols, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pols {
			b.ReportMetric(100*meanReduction(rows, p), p+"-reduction-%")
		}
	}
}

// BenchmarkF7Predictors regenerates F7: fill-time sharing-predictor
// accuracy for the address- and PC-indexed tables.
func BenchmarkF7Predictors(b *testing.B) {
	s := fullSuite(b)
	cfg := sharellc.DefaultPredictorConfig()
	for i := 0; i < b.N; i++ {
		rows, err := s.PredictorAccuracy(llc4MB, ways, cfg, []string{"addr", "pc"})
		if err != nil {
			b.Fatal(err)
		}
		acc := map[string][2]float64{}
		for _, r := range rows {
			v := acc[r.Predictor]
			v[0] += r.Accuracy
			v[1]++
			acc[r.Predictor] = v
		}
		for p, v := range acc {
			b.ReportMetric(100*v[0]/v[1], p+"-accuracy-%")
		}
	}
}

// BenchmarkF8PredictorPolicy regenerates F8: realistic predictors driving
// the sharing-aware wrapper end-to-end, compared against the oracle
// ceiling (the paper's negative result: realized gain ≪ oracle gain).
func BenchmarkF8PredictorPolicy(b *testing.B) {
	s := fullSuite(b)
	cfg := sharellc.DefaultPredictorConfig()
	opts := sharellc.ProtectorOptions{Strength: sharellc.Full}
	for i := 0; i < b.N; i++ {
		rows, err := s.PredictorDriven(llc4MB, ways, cfg, []string{"addr", "pc"}, opts)
		if err != nil {
			b.Fatal(err)
		}
		sums := map[string][2]float64{}
		var orc, n float64
		for _, r := range rows {
			v := sums[r.Predictor]
			v[0] += r.Reduction
			v[1]++
			sums[r.Predictor] = v
			orc += r.OracleReduction
			n++
		}
		for p, v := range sums {
			b.ReportMetric(100*v[0]/v[1], p+"-reduction-%")
		}
		b.ReportMetric(100*orc/n, "oracle-ceiling-%")
	}
}

// BenchmarkF9SharingPhases regenerates F9: the stability of per-block
// sharing status across program phases (the predictor-failure mechanism).
func BenchmarkF9SharingPhases(b *testing.B) {
	s := fullSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.SharingPhases(0)
		if err != nil {
			b.Fatal(err)
		}
		flip, mixed := 0.0, 0.0
		for _, r := range rows {
			flip += r.FlipRate
			mixed += r.MixedFrac
		}
		b.ReportMetric(flip/float64(len(rows)), "flip-rate")
		b.ReportMetric(100*mixed/float64(len(rows)), "mixed-%")
	}
}

// BenchmarkC1CoherenceTraffic regenerates C1: MESI directory event rates
// over the raw traces (the extension characterization).
func BenchmarkC1CoherenceTraffic(b *testing.B) {
	s := ablationSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.CoherenceCharacterize()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.C2CTransfersPKR
		}
		b.ReportMetric(sum/float64(len(rows)), "c2c-per-kref")
	}
}

// BenchmarkC2ReuseDistances regenerates C2: the reuse-distance
// distributions by sharing class. The metric is the mean share of shared
// accesses whose stack distance lands between the 4 MB and 8 MB
// capacities — the oracle's 8 MB-only headroom.
func BenchmarkC2ReuseDistances(b *testing.B) {
	s := ablationSuite(b)
	for i := 0; i < b.N; i++ {
		rows, err := s.ReuseDistances(llc4MB)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range rows {
			sum += r.SharedShares[3] // the 64K-128K bucket
		}
		b.ReportMetric(100*sum/float64(len(rows)), "shared-4to8MB-%")
	}
}

// BenchmarkA1ProtectionStrength is the A1 ablation: insert-only vs. full
// protection for the oracle on a suite subset.
func BenchmarkA1ProtectionStrength(b *testing.B) {
	s := ablationSuite(b)
	for i := 0; i < b.N; i++ {
		ins, err := s.OracleStudy(llc4MB, ways, []string{"lru"},
			sharellc.ProtectorOptions{Strength: sharellc.InsertOnly})
		if err != nil {
			b.Fatal(err)
		}
		full, err := s.OracleStudy(llc4MB, ways, []string{"lru"},
			sharellc.ProtectorOptions{Strength: sharellc.Full})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*meanReduction(ins, "lru"), "insert-only-%")
		b.ReportMetric(100*meanReduction(full, "lru"), "full-%")
	}
}

// BenchmarkA2PredictorSweep is the A2 ablation: predictor table size.
func BenchmarkA2PredictorSweep(b *testing.B) {
	s := ablationSuite(b)
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{8, 14} {
			cfg := sharellc.DefaultPredictorConfig()
			cfg.TableBits = bits
			rows, err := s.PredictorAccuracy(llc4MB, ways, cfg, []string{"addr"})
			if err != nil {
				b.Fatal(err)
			}
			sum := 0.0
			for _, r := range rows {
				sum += r.Accuracy
			}
			b.ReportMetric(100*sum/float64(len(rows)), "addr-acc-2e"+itoa(bits)+"-%")
		}
	}
}

// BenchmarkA3Associativity is the A3 ablation: oracle gain vs. LLC ways.
func BenchmarkA3Associativity(b *testing.B) {
	s := ablationSuite(b)
	opts := sharellc.ProtectorOptions{Strength: sharellc.Full}
	for i := 0; i < b.N; i++ {
		for _, w := range []int{8, 16, 32} {
			rows, err := s.OracleStudy(llc4MB, w, []string{"lru"}, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*meanReduction(rows, "lru"), "reduction-"+itoa(w)+"w-%")
		}
	}
}

// BenchmarkA4HorizonSweep is the A4 ablation: oracle gain vs. the sharing
// lookahead horizon, through the experiment's table plan.
func BenchmarkA4HorizonSweep(b *testing.B) {
	s := ablationSuite(b)
	specs, ok := sim.PlanFor("a4", sim.DefaultExpOptions()) // 4 MB, 16 ways, full protection
	if !ok {
		b.Fatal("a4 has no table plan")
	}
	for i := 0; i < b.N; i++ {
		rows, err := specs[0].Run(s)
		if err != nil {
			b.Fatal(err)
		}
		sums := map[int][2]float64{}
		for _, r := range rows.([]sim.HorizonRow) {
			v := sums[r.Factor]
			v[0] += r.Reduction
			v[1]++
			sums[r.Factor] = v
		}
		for f, v := range sums {
			b.ReportMetric(100*v[0]/v[1], "reduction-h"+itoa(f)+"-%")
		}
	}
}

var (
	ablOnce sync.Once
	abl     *sharellc.Suite
	ablErr  error
)

// ablationSuite prepares a 6-workload subset used by the A* ablations.
func ablationSuite(b *testing.B) *sharellc.Suite {
	b.Helper()
	ablOnce.Do(func() {
		cfg := sharellc.DefaultConfig()
		for _, n := range []string{"canneal", "dedup", "barnes", "ocean", "streamcluster", "swaptions"} {
			cfg.Models = append(cfg.Models, sharellc.MustWorkload(n))
		}
		abl, ablErr = sharellc.NewSuite(cfg)
	})
	if ablErr != nil {
		b.Fatal(ablErr)
	}
	return abl
}

// BenchmarkM1Multiprogrammed regenerates M1: the oracle over
// multiprogrammed mixes (the motivating contrast — expect ~0).
func BenchmarkM1Multiprogrammed(b *testing.B) {
	var mix []sharellc.Model
	for _, n := range []string{"swaptions", "blackscholes", "freqmine", "water", "equake", "lu", "bodytrack", "facesim"} {
		mix = append(mix, sharellc.MustWorkload(n))
	}
	for i := 0; i < b.N; i++ {
		rows, err := sharellc.MultiprogrammedOracle([][]sharellc.Model{mix},
			sharellc.DefaultMachine(), 1, llc4MB, ways,
			sharellc.ProtectorOptions{Strength: sharellc.Full})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].Reduction, "mix-reduction-%")
	}
}

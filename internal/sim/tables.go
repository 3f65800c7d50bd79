package sim

import (
	"fmt"

	"sharellc/internal/report"
	"sharellc/internal/reuse"
	"sharellc/internal/stats"
)

// groups collects each row's value under its key, keys in first-seen
// order.
func groups[R any, K comparable](rows []R, kv func(R) (K, float64)) ([]K, map[K][]float64) {
	by := map[K][]float64{}
	var order []K
	for _, r := range rows {
		k, v := kv(r)
		if _, ok := by[k]; !ok {
			order = append(order, k)
		}
		by[k] = append(by[k], v)
	}
	return order, by
}

// charTable renders F1/F2 characterization rows.
func charTable(title string, rows []CharRow) *report.Table {
	t := report.NewTable(title,
		"workload", "suite", "llc-refs", "miss-rate", "shared-hit%", "ro-sh%", "rw-sh%", "shared-res%", "shared-blk%")
	var hitFracs []float64
	for _, r := range rows {
		t.MustRow(r.Workload, r.Suite, report.N(r.Accesses), report.F(r.MissRate),
			stats.Pct(r.SharedHitFrac), stats.Pct(r.ROSharedHitFrac), stats.Pct(r.RWSharedHitFrac),
			stats.Pct(r.SharedResidencyFrac), stats.Pct(r.SharedBlockFrac))
		hitFracs = append(hitFracs, r.SharedHitFrac)
	}
	t.Note = fmt.Sprintf("mean shared-hit fraction: %s", stats.Pct(stats.Mean(hitFracs)))
	return t
}

// degreeTable renders the F3 sharing-degree distribution.
func degreeTable(title string, rows []CharRow) *report.Table {
	t := report.NewTable(title,
		"workload",
		"res d=1", "res d=2", "res d=3-4", "res d=5+",
		"hit d=1", "hit d=2", "hit d=3-4", "hit d=5+")
	for _, r := range rows {
		t.MustRow(r.Workload,
			stats.Pct(r.DegreeResidencyShare[0]), stats.Pct(r.DegreeResidencyShare[1]),
			stats.Pct(r.DegreeResidencyShare[2]), stats.Pct(r.DegreeResidencyShare[3]),
			stats.Pct(r.DegreeHitShare[0]), stats.Pct(r.DegreeHitShare[1]),
			stats.Pct(r.DegreeHitShare[2]), stats.Pct(r.DegreeHitShare[3]))
	}
	t.Note = "residency and hit shares by sharing degree (cores touching the block during residency)"
	return t
}

// policyTable renders F4 policy-comparison rows grouped by workload.
func policyTable(title string, rows []PolicyRow) *report.Table {
	t := report.NewTable(title, "workload", "policy", "misses", "vs-lru", "shared-hit%")
	for _, r := range rows {
		t.MustRow(r.Workload, r.Policy, report.N(r.Misses), report.F(r.MissesVsLRU), stats.Pct(r.SharedHitFrac))
	}
	// Per-policy geomean of normalized misses: the suite-level summary.
	order, byPolicy := groups(rows, func(r PolicyRow) (string, float64) { return r.Policy, r.MissesVsLRU })
	note := "geomean misses vs LRU:"
	for _, p := range order {
		note += fmt.Sprintf(" %s=%.3f", p, stats.GeoMean(byPolicy[p]))
	}
	t.Note = note
	return t
}

// oracleTable renders F5/F6 oracle-study rows.
func oracleTable(title string, rows []OracleRow) *report.Table {
	t := report.NewTable(title,
		"workload", "policy", "base-misses", "oracle-misses", "reduction", "amat-speedup", "base-sh%", "orc-sh%")
	for _, r := range rows {
		t.MustRow(r.Workload, r.Policy, report.N(r.BaseMisses), report.N(r.OracleMisses),
			stats.Pct(r.Reduction), report.F(r.AMATSpeedup), stats.Pct(r.BaseSharedHitFrac), stats.Pct(r.OracleSharedHitFrac))
	}
	note := "mean miss reduction:"
	order, byPolicy := groups(rows, func(r OracleRow) (string, float64) { return r.Policy, r.Reduction })
	for _, p := range order {
		note += fmt.Sprintf(" %s=%s", p, stats.Pct(stats.Mean(byPolicy[p])))
	}
	t.Note = note
	return t
}

// reuseTable renders C2 reuse-distance rows: one row per (workload,
// class) with the bucket shares.
func reuseTable(title string, rows []reuseRow) *report.Table {
	headers := []string{"workload", "class", "accesses"}
	for b := 0; b < reuse.NumBuckets; b++ {
		headers = append(headers, reuse.BucketLabel(b))
	}
	t := report.NewTable(title, headers...)
	emit := func(w, class string, total uint64, shares [reuse.NumBuckets]float64) {
		cells := []string{w, class, report.N(total)}
		for b := 0; b < reuse.NumBuckets; b++ {
			cells = append(cells, stats.Pct(shares[b]))
		}
		t.MustRow(cells...)
	}
	for _, r := range rows {
		emit(r.Workload, "shared", r.SharedTotal, r.SharedShares)
		emit(r.Workload, "private", r.PrivateTotal, r.PrivateShares)
	}
	t.Note = "LRU stack distances in blocks; 64K = 4MB capacity, 128K = 8MB capacity"
	return t
}

// coherenceTable renders C1 coherence-traffic rows.
func coherenceTable(title string, rows []CoherenceRow) *report.Table {
	t := report.NewTable(title,
		"workload", "refs", "inv/kref", "downgrade/kref", "c2c/kref", "upgrade/kref")
	var c2c []float64
	for _, r := range rows {
		t.MustRow(r.Workload, report.N(r.Refs), report.F(r.InvalidationsPKR),
			report.F(r.DowngradesPKR), report.F(r.C2CTransfersPKR), report.F(r.UpgradesPKR))
		c2c = append(c2c, r.C2CTransfersPKR)
	}
	t.Note = fmt.Sprintf("MESI directory over infinite private caches; mean cache-to-cache rate %.3f/kref", stats.Mean(c2c))
	return t
}

// phaseTable renders F9 sharing-phase rows.
func phaseTable(title string, rows []phaseRow) *report.Table {
	t := report.NewTable(title,
		"workload", "flip-rate", "mixed%", "always-sh", "never-sh", "mixed", "1-window")
	var flips, mixed []float64
	for _, r := range rows {
		t.MustRow(r.Workload, report.F(r.FlipRate), stats.Pct(r.MixedFrac),
			report.N(r.AlwaysShared), report.N(r.NeverShared), report.N(r.Mixed), report.N(r.SingleWindow))
		flips = append(flips, r.FlipRate)
		mixed = append(mixed, r.MixedFrac)
	}
	t.Note = fmt.Sprintf("mean flip rate %s, mean mixed fraction %s — phased sharing is what stales address/PC history",
		report.F(stats.Mean(flips)), stats.Pct(stats.Mean(mixed)))
	return t
}

// horizonTable renders A4 horizon-sweep rows.
func horizonTable(title string, rows []horizonRow) *report.Table {
	t := report.NewTable(title, "workload", "horizon", "reduction")
	for _, r := range rows {
		t.MustRow(r.Workload, fmt.Sprintf("%dx", r.Factor), stats.Pct(r.Reduction))
	}
	order, byFactor := groups(rows, func(r horizonRow) (int, float64) { return r.Factor, r.Reduction })
	note := "mean reduction by horizon:"
	for _, f := range order {
		note += fmt.Sprintf(" %dx=%s", f, stats.Pct(stats.Mean(byFactor[f])))
	}
	t.Note = note
	return t
}

// predictorTable renders F7 accuracy rows.
func predictorTable(title string, rows []PredictorRow) *report.Table {
	t := report.NewTable(title,
		"workload", "predictor", "accuracy", "precision", "recall", "shared-rate")
	for _, r := range rows {
		t.MustRow(r.Workload, r.Predictor, report.F(r.Accuracy), report.F(r.Precision),
			report.F(r.Recall), report.F(r.SharedBaseRate))
	}
	order, byPred := groups(rows, func(r PredictorRow) (string, float64) { return r.Predictor, r.Accuracy })
	note := "mean accuracy:"
	for _, p := range order {
		note += fmt.Sprintf(" %s=%.3f", p, stats.Mean(byPred[p]))
	}
	t.Note = note
	return t
}

// drivenTable renders F8 predictor-driven rows.
func drivenTable(title string, rows []DrivenRow) *report.Table {
	t := report.NewTable(title,
		"workload", "predictor", "base-misses", "driven-misses", "reduction", "oracle-reduction")
	for _, r := range rows {
		t.MustRow(r.Workload, r.Predictor, report.N(r.BaseMisses), report.N(r.DrivenMisses),
			stats.Pct(r.Reduction), stats.Pct(r.OracleReduction))
	}
	order, byPred := groups(rows, func(r DrivenRow) (string, float64) { return r.Predictor, r.Reduction })
	// Every predictor of a workload shares its oracle ceiling.
	var oracleRed []float64
	for _, r := range rows {
		if r.Predictor == order[0] {
			oracleRed = append(oracleRed, r.OracleReduction)
		}
	}
	note := "mean reduction:"
	for _, p := range order {
		note += fmt.Sprintf(" %s=%s", p, stats.Pct(stats.Mean(byPred[p])))
	}
	note += fmt.Sprintf(" oracle=%s", stats.Pct(stats.Mean(oracleRed)))
	t.Note = note
	return t
}

// seedTable renders A5 seed-robustness rows.
func seedTable(title string, rows []seedRow) *report.Table {
	t := report.NewTable(title, "seed", "mean-reduction", "workloads")
	for _, r := range rows {
		t.MustRow(fmt.Sprintf("%d", r.Seed), stats.Pct(r.Reduction), fmt.Sprintf("%d", r.Workloads))
	}
	t.Note = "same workload subset regenerated per seed; the headroom is a property of the sharing structure, not of one trace"
	return t
}

package sim

import (
	"context"
	"fmt"
	"slices"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/mem"
	"sharellc/internal/oracle"
	"sharellc/internal/par"
	"sharellc/internal/phase"
	"sharellc/internal/policy"
	"sharellc/internal/predictor"
	"sharellc/internal/reuse"
	"sharellc/internal/sharing"
	"sharellc/internal/stats"
	"sharellc/internal/workloads"
)

// CharRow is one workload's characterization at one LLC size (experiments
// F1, F2, F3).
type CharRow struct {
	Workload string
	Suite    string

	Accesses uint64 // LLC references
	Hits     uint64
	Misses   uint64
	MissRate float64

	SharedHitFrac       float64 // fraction of LLC hits landing in shared residencies
	SharedResidencyFrac float64 // fraction of residencies that are shared
	SharedBlockFrac     float64 // fraction of distinct blocks ever shared

	// ROSharedHitFrac and RWSharedHitFrac split the shared hit volume by
	// write behaviour (read-only vs. actively communicated data); they
	// sum to SharedHitFrac.
	ROSharedHitFrac float64
	RWSharedHitFrac float64

	DegreeResidencyShare [4]float64 // residency share per stats.degreeBuckets
	DegreeHitShare       [4]float64 // hit share per stats.degreeBuckets
}

// Characterize runs the F1/F2/F3 characterization under LRU at the given
// LLC geometry, one row per workload.
func (s *Suite) Characterize(llcSize, llcWays int) ([]CharRow, error) {
	return perStream(s, "characterize", func(st *Stream) ([]CharRow, error) {
		results, _, err := s.replay(st, sharing.Tracked, []lane{{policy: "lru", size: llcSize, ways: llcWays}})
		if err != nil {
			return nil, err
		}
		res := results[0]
		return []CharRow{{
			Workload:             st.Model.Name,
			Suite:                st.Model.Suite,
			Accesses:             res.Accesses,
			Hits:                 res.Hits,
			Misses:               res.Misses,
			MissRate:             res.MissRate(),
			SharedHitFrac:        res.SharedHitFraction(),
			ROSharedHitFrac:      stats.Ratio(res.ROSharedHits, res.Hits),
			RWSharedHitFrac:      stats.Ratio(res.RWSharedHits, res.Hits),
			SharedResidencyFrac:  stats.Ratio(res.SharedResidencies, res.Residencies),
			SharedBlockFrac:      stats.Ratio(res.DistinctSharedBlocks, res.DistinctBlocks),
			DegreeResidencyShare: stats.BucketizeDegrees(res.DegreeResidencies),
			DegreeHitShare:       stats.BucketizeDegrees(res.DegreeHits),
		}}, nil
	})
}

// CoherenceRow is one workload's coherence-traffic characterization
// (experiment C1, an extension): directory-protocol event rates per
// thousand references under an infinite-private-cache view — the "other
// architectural features" the paper's conclusion points at, quantified.
type CoherenceRow struct {
	Workload string
	Refs     uint64

	// Event rates per thousand references.
	InvalidationsPKR float64
	DowngradesPKR    float64
	C2CTransfersPKR  float64
	UpgradesPKR      float64
}

// CoherenceCharacterize reports each workload's coherence census, the
// MESI directory keyed by the model's dense block index that the stream
// build fed with the raw trace (a stream loaded from a snapshot
// regenerates its trace for it). The directory models infinite private
// caches (no capacity evictions), so the rates measure *true*
// communication, independent of cache geometry.
func (s *Suite) CoherenceCharacterize() ([]CoherenceRow, error) {
	ctx := s.context()
	return perStream(s, "coherence characterize", func(st *Stream) ([]CoherenceRow, error) {
		cs, err := st.coherenceCensus(ctx, s.Config.Seed)
		if err != nil {
			return nil, err
		}
		refs := cs.Loads + cs.Stores
		pkr := func(v uint64) float64 {
			if refs == 0 {
				return 0
			}
			return 1000 * float64(v) / float64(refs)
		}
		return []CoherenceRow{{
			Workload:         st.Model.Name,
			Refs:             refs,
			InvalidationsPKR: pkr(cs.Invalidations),
			DowngradesPKR:    pkr(cs.Downgrades),
			C2CTransfersPKR:  pkr(cs.C2CTransfers),
			UpgradesPKR:      pkr(cs.UpgradeMisses),
		}}, nil
	})
}

// reuseRow is one workload's reuse-distance characterization (experiment
// C2, an extension): the distribution of LRU stack distances at the LLC,
// split into shared-future and private accesses. Buckets follow
// reuse.bucketEdges; the 64K- and 128K-block edges are the 4 MB and 8 MB
// capacities, so the shares read directly as "fits at 4 MB / at 8 MB /
// nowhere".
type reuseRow struct {
	Workload string

	SharedShares  [reuse.NumBuckets]float64
	PrivateShares [reuse.NumBuckets]float64
	SharedTotal   uint64
	PrivateTotal  uint64
}

// reuseDistances runs the C2 characterization, classifying each access
// with the oracle's residency-scale sharing hint at the given LLC size.
func (s *Suite) reuseDistances(llcSize int) ([]reuseRow, error) {
	return perStream(s, "reuse distances", func(st *Stream) ([]reuseRow, error) {
		hints := oracle.SharedHints(st.Accesses, oracle.Horizon(llcSize, oracle.HorizonFactor))
		prof, err := reuse.Analyze(st.Accesses, hints)
		if err != nil {
			return nil, err
		}
		row := reuseRow{
			Workload:     st.Model.Name,
			SharedTotal:  prof.Shared.Total,
			PrivateTotal: prof.Private.Total,
		}
		for b := 0; b < reuse.NumBuckets; b++ {
			row.SharedShares[b] = prof.Shared.Share(b)
			row.PrivateShares[b] = prof.Private.Share(b)
		}
		return []reuseRow{row}, nil
	})
}

// phaseRow is one workload's sharing-phase analysis (experiment F9):
// how stable a block's shared/private status is across program phases,
// the mechanistic explanation of the predictor failure.
type phaseRow struct {
	Workload string

	Windows      int
	FlipRate     float64 // fraction of window-to-window status changes
	MixedFrac    float64 // multi-window blocks with both statuses
	AlwaysShared uint64
	NeverShared  uint64
	Mixed        uint64
	SingleWindow uint64
}

// sharingPhases runs the F9 phase analysis over every workload's LLC
// stream with the given number of windows (0 = phase.DefaultWindows).
func (s *Suite) sharingPhases(windows int) ([]phaseRow, error) {
	if windows == 0 {
		windows = phase.DefaultWindows
	}
	return perStream(s, "phase analysis", func(st *Stream) ([]phaseRow, error) {
		res, err := phase.Analyze(st.Accesses, windows)
		if err != nil {
			return nil, err
		}
		return []phaseRow{{
			Workload:     st.Model.Name,
			Windows:      res.Windows,
			FlipRate:     res.FlipRate(),
			MixedFrac:    res.MixedFraction(),
			AlwaysShared: res.AlwaysShared,
			NeverShared:  res.NeverShared,
			Mixed:        res.Mixed,
			SingleWindow: res.SingleWindow,
		}}, nil
	})
}

// PolicyRow is one (workload, policy) cell of the policy comparison
// (experiment F4).
type PolicyRow struct {
	Workload string
	Policy   string

	Misses        uint64
	MissRate      float64
	MissesVsLRU   float64 // misses normalized to LRU on the same workload
	SharedHits    uint64
	SharedHitFrac float64
}

// ComparePolicies replays every workload under every named policy
// (experiment F4) — one fused replay per workload drives all policy
// lanes in a single stream pass. Rows are grouped by workload in suite
// order, policies in the order given.
func (s *Suite) ComparePolicies(llcSize, llcWays int, names []string) ([]PolicyRow, error) {
	if len(names) == 0 {
		names = policy.Names(s.Config.Seed)
	}
	lanes := make([]lane, len(names))
	for i, n := range names {
		lanes[i] = lane{policy: n, size: llcSize, ways: llcWays}
	}
	return perStream(s, "comparing", func(st *Stream) ([]PolicyRow, error) {
		// A row reads only counts and shared hits.
		results, _, err := s.replay(st, sharing.SharedHitsOnly, lanes)
		if err != nil {
			return nil, err
		}
		// Fused results arrive grouped per workload, so LRU normalization
		// reads straight from this group — no cross-row second pass.
		var lruMisses uint64
		for _, res := range results {
			if res.Policy == "lru" {
				lruMisses = res.Misses
			}
		}
		rows := make([]PolicyRow, len(results))
		for p, res := range results {
			row := PolicyRow{
				Workload:      st.Model.Name,
				Policy:        res.Policy,
				Misses:        res.Misses,
				MissRate:      res.MissRate(),
				SharedHits:    res.SharedHits,
				SharedHitFrac: res.SharedHitFraction(),
			}
			if lruMisses > 0 {
				row.MissesVsLRU = float64(res.Misses) / float64(lruMisses)
			}
			rows[p] = row
		}
		return rows, nil
	})
}

// OracleRow is one (workload, policy) result of the oracle study
// (experiments F5, F6, A1).
type OracleRow struct {
	Workload string
	Policy   string

	BaseMisses   uint64
	OracleMisses uint64
	Reduction    float64 // fractional miss reduction, positive = oracle wins

	BaseSharedHitFrac   float64
	OracleSharedHitFrac float64
	// AMATSpeedup translates the miss delta into an average-memory-
	// access-time speedup under defaultLatency (first-order, no MLP).
	AMATSpeedup float64
	Protector   core.Stats
}

// OracleStudy runs the two-pass oracle experiment for each workload and
// each named base policy at the given strength — all 2×|policies| lanes
// of one workload fused into a single stream pass.
func (s *Suite) OracleStudy(llcSize, llcWays int, names []string, opts core.Options) ([]OracleRow, error) {
	return firstTable(s.oracleTables(llcSize, []int{llcWays}, names, []core.Options{opts}))
}

// oracleTables runs the oracle study of one table per (ways, options)
// pair, ways-major: per workload, one fused replay of a bare lane per
// (ways, policy) base and a protected lane per (table, policy). Every
// protected lane shares the base lane of its ways and policy and, at one
// LLC size, one hint column. A table's rows are its policies', in name
// order. No row reads the tracked census, so the replay runs at
// sharing.SharedHitsOnly.
func (s *Suite) oracleTables(llcSize int, ways []int, names []string, opts []core.Options) ([][]OracleRow, error) {
	if len(names) == 0 {
		names = []string{"lru"}
	}
	var lanes []lane
	for _, w := range ways {
		for _, n := range names {
			lanes = append(lanes, lane{policy: n, size: llcSize, ways: w})
		}
	}
	bases := len(lanes)
	for _, w := range ways {
		for o := range opts {
			for _, n := range names {
				lanes = append(lanes, lane{policy: n, size: llcSize, ways: w, prot: &opts[o], factor: oracle.HorizonFactor})
			}
		}
	}
	return perStreamTables(s, "oracle study", len(ways)*len(opts), func(st *Stream) ([][]OracleRow, error) {
		results, prot, err := s.replay(st, sharing.SharedHitsOnly, lanes)
		if err != nil {
			return nil, err
		}
		tables := make([][]OracleRow, len(ways)*len(opts))
		for i := range lanes[bases:] {
			t, p := i/len(names), i%len(names)
			base, orc := results[t/len(opts)*len(names)+p], results[bases+i]
			tables[t] = append(tables[t], OracleRow{
				Workload:            st.Model.Name,
				Policy:              names[p],
				BaseMisses:          base.Misses,
				OracleMisses:        orc.Misses,
				Reduction:           oracle.MissReduction(base, orc),
				BaseSharedHitFrac:   base.SharedHitFraction(),
				OracleSharedHitFrac: orc.SharedHitFraction(),
				AMATSpeedup:         defaultLatency().amatSpeedup(st, base.Hits, base.Misses, orc.Hits, orc.Misses),
				Protector:           prot[bases+i],
			})
		}
		return tables, nil
	})
}

// lane is one replay lane of an experiment, stated as a value: the base
// policy's catalogue name and the LLC geometry, and for a protected lane
// (prot set) its hint source — the named predictor built with cfg, or
// else the oracle's SharedHints column at factor × the LLC's capacity
// (oracle.HorizonFactor).
type lane struct {
	policy     string
	size, ways int
	prot       *core.Options
	factor     int
	pred       string
	cfg        predictor.Config
}

// replay replays lanes over st in one sharing.ReplayMulti at tier,
// and returns each lane's result and protector counters (zero for a bare
// lane), by lane index. The hint columns go back to the mem pool when the
// replay returns.
func (s *Suite) replay(st *Stream, tier sharing.Tier, lanes []lane) ([]*sharing.Result, []core.Stats, error) {
	pols, cols, err := s.lanePolicies(st, lanes)
	defer func() {
		for _, c := range cols {
			mem.Release(c)
		}
	}()
	if err != nil {
		return nil, nil, err
	}
	configs := make([]sharing.LLCConfig, len(lanes))
	for i, l := range lanes {
		// ReplayMulti calls NewPolicy once per lane.
		configs[i] = sharing.LLCConfig{Size: l.size, Ways: l.ways, NewPolicy: func() cache.Policy { return pols[i] }}
	}
	opt := s.replayOpts(st)
	opt.Tier = tier
	results, err := sharing.ReplayMulti(st.Accesses, configs, opt)
	if err != nil {
		return nil, nil, err
	}
	stats := make([]core.Stats, len(lanes))
	for i, pol := range pols {
		if pl, ok := pol.(*core.Lane); ok {
			stats[i] = pl.Stats()
		}
	}
	return results, stats, nil
}

// lanePolicies is where an experiment lane becomes a policy, once per
// lane: the base from policy.ByName under the suite seed, and for a
// protected lane a core.Lane over core.NewProtectorOpts of it, hinted by
// an oracle column or by a predictor the lane drives. One backward pass
// builds the hint column of every distinct horizon (a trace property,
// shared by every oracle lane at that horizon whatever its policy, ways
// or options) from the mem pool; the caller releases cols, error or not.
func (s *Suite) lanePolicies(st *Stream, lanes []lane) (pols []cache.Policy, cols [][]bool, err error) {
	var horizons []int64
	for _, l := range lanes {
		if l.prot == nil || l.pred != "" {
			continue
		}
		if l.factor < 1 {
			return nil, nil, fmt.Errorf("sim: horizon factor %d < 1", l.factor)
		}
		if h := oracle.Horizon(l.size, l.factor); !slices.Contains(horizons, h) {
			horizons = append(horizons, h)
		}
	}
	cols = oracle.Columns(st.Accesses, st.NumBlocks, horizons)
	pols = make([]cache.Policy, len(lanes))
	for i, l := range lanes {
		f, err := policy.ByName(l.policy, s.Config.Seed)
		if err != nil {
			return nil, cols, err
		}
		pols[i] = f()
		if l.prot != nil {
			var h core.LaneHinter
			if l.pred == "" {
				h = oracle.Hints(cols[slices.Index(horizons, oracle.Horizon(l.size, l.factor))])
			} else {
				pred, err := newPredictor(l.pred, l.cfg, st)
				if err != nil {
					return nil, cols, err
				}
				h = predictor.NewDriven(pred)
			}
			pols[i] = core.NewLane(core.NewProtectorOpts(pols[i], *l.prot), h)
		}
	}
	return pols, cols, nil
}

// buildMixStream prepares the LLC reference stream of a multiprogrammed
// mix (independent single-threaded programs, one per core, disjoint
// address spaces), numbering its blocks through the mix's block index.
func buildMixStream(models []workloads.Model, machine cache.Config, seed uint64) (*Stream, error) {
	if len(models) > machine.Cores {
		return nil, fmt.Errorf("sim: mix of %d programs on %d cores", len(models), machine.Cores)
	}
	r, err := workloads.Mix(models, seed)
	if err != nil {
		return nil, err
	}
	stream, h, err := cache.FilterStream(r, machine)
	if err != nil {
		return nil, fmt.Errorf("sim: filtering %s: %w", workloads.MixName(models), err)
	}
	index, span := workloads.MixBlockIndex(models)
	for i := range stream {
		stream[i].BlockID = index(stream[i].Block)
	}
	numBlocks := cache.AnnotateNextUseIndexed(stream, span)
	refs, l1, l2, _ := h.Stats()
	pseudo := models[0]
	pseudo.Name = workloads.MixName(models)
	pseudo.Threads = len(models)
	return &Stream{Model: pseudo, Accesses: stream, NumBlocks: numBlocks, TraceLen: refs, L1Hits: l1, L2Hits: l2}, nil
}

// MultiprogrammedOracle runs the M1 experiment: the sharing oracle over
// multiprogrammed mixes, where by construction nothing is shared and the
// oracle should have (near) nothing to offer — the paper's motivating
// contrast with multi-threaded workloads. The mixes' streams form a suite
// of their own, on which the LRU oracle study runs. ctx cancels both mix
// preparation and the oracle replays.
func MultiprogrammedOracle(ctx context.Context, mixes [][]workloads.Model, machine cache.Config, seed uint64, llcSize, llcWays int, opts core.Options) ([]OracleRow, error) {
	s := &Suite{Config: Config{Machine: machine, Seed: seed, Scale: 1}, Streams: make([]*Stream, len(mixes)), ctx: ctx}
	err := par.For(ctx, len(mixes), func(i int) (err error) {
		s.Streams[i], err = buildMixStream(mixes[i], machine, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	return s.OracleStudy(llcSize, llcWays, []string{"lru"}, opts)
}

// horizonRow is one (workload, horizon-factor) result of the A4 ablation.
type horizonRow struct {
	Workload  string
	Factor    int // sharing lookahead in multiples of LLC capacity
	Reduction float64
}

// oracleHorizonSweep reruns the LRU oracle study at several sharing
// horizons (ablation A4): how sensitive is the headroom to how far ahead
// "will be shared during its residency" looks? Its rows read only miss
// counts, so the replay counts only.
func (s *Suite) oracleHorizonSweep(llcSize, llcWays int, factors []int, opts core.Options) ([]horizonRow, error) {
	if len(factors) == 0 {
		factors = []int{1, 2, 4, 8}
	}
	lanes := []lane{{policy: "lru", size: llcSize, ways: llcWays}}
	for _, f := range factors {
		lanes = append(lanes, lane{policy: "lru", size: llcSize, ways: llcWays, prot: &opts, factor: f})
	}
	return perStream(s, "horizon sweep", func(st *Stream) ([]horizonRow, error) {
		results, _, err := s.replay(st, sharing.CountsOnly, lanes)
		if err != nil {
			return nil, err
		}
		rows := make([]horizonRow, len(factors))
		for f, res := range results[1:] {
			rows[f] = horizonRow{Workload: st.Model.Name, Factor: factors[f], Reduction: oracle.MissReduction(results[0], res)}
		}
		return rows, nil
	})
}

// predictorNames lists the realistic predictors of the F7/F8 studies in
// presentation order: the paper's two history predictors, the tournament
// combination (extension), and the always/never brackets that expose each
// workload's class prior.
func predictorNames() []string {
	return []string{"addr", "pc", "tournament", "coherence", "always", "never"}
}

// newPredictor builds the named predictor with cfg for st.
func newPredictor(name string, cfg predictor.Config, st *Stream) (predictor.Predictor, error) {
	switch name {
	case "addr":
		return predictor.NewAddress(cfg)
	case "pc":
		return predictor.NewPC(cfg)
	case "tournament":
		return predictor.NewTournament(cfg)
	case "coherence":
		return predictor.NewCoherence(st.Accesses, st.NumBlocks, 0)
	case "always":
		return predictor.Always{}, nil
	case "never":
		return predictor.Never{}, nil
	default:
		return nil, fmt.Errorf("sim: unknown predictor %q", name)
	}
}

// PredictorRow is one (workload, predictor) accuracy result (experiment
// F7).
type PredictorRow struct {
	Workload  string
	Predictor string

	Pred           predictor.PredStats
	Accuracy       float64
	Precision      float64
	Recall         float64
	SharedBaseRate float64 // fraction of residencies that are shared (class prior)
}

// PredictorAccuracy measures fill-time prediction quality without letting
// predictions influence replacement, under the LRU base policy. One
// scored lane per workload carries every predictor.
func (s *Suite) PredictorAccuracy(llcSize, llcWays int, cfg predictor.Config, names []string) ([]PredictorRow, error) {
	return firstTable(s.predictorTables(llcSize, llcWays, []predictor.Config{cfg}, names))
}

// predictorTables scores every named predictor under every configuration
// in one scored LRU lane per workload: table t holds the predictors built
// with cfgs[t], in name order.
func (s *Suite) predictorTables(llcSize, llcWays int, cfgs []predictor.Config, names []string) ([][]PredictorRow, error) {
	if len(names) == 0 {
		names = predictorNames()
	}
	return perStreamTables(s, "predictor accuracy", len(cfgs), func(st *Stream) ([][]PredictorRow, error) {
		var preds []predictor.Predictor
		for _, cfg := range cfgs {
			for _, n := range names {
				pred, err := newPredictor(n, cfg, st)
				if err != nil {
					return nil, err
				}
				preds = append(preds, pred)
			}
		}
		lane, finish, err := predictor.ScoredLane(llcSize, llcWays, func() cache.Policy { return policy.NewLRUPolicy() }, preds)
		if err != nil {
			return nil, err
		}
		// The rows come from the lane's matrices, so the replay counts only.
		opt := s.replayOpts(st)
		opt.Tier = sharing.CountsOnly
		if _, err := sharing.ReplayMulti(st.Accesses, []sharing.LLCConfig{lane}, opt); err != nil {
			return nil, err
		}
		tables := make([][]PredictorRow, len(cfgs))
		for i, ps := range finish() {
			// Every residency is scored, so the shared ones are TP+FN.
			t := i / len(names)
			tables[t] = append(tables[t], PredictorRow{
				Workload:       st.Model.Name,
				Predictor:      names[i%len(names)],
				Pred:           ps,
				Accuracy:       ps.Accuracy(),
				Precision:      ps.Precision(),
				Recall:         ps.Recall(),
				SharedBaseRate: stats.Ratio(ps.TP+ps.FN, ps.Total()),
			})
		}
		return tables, nil
	})
}

// DrivenRow is one (workload, predictor) end-to-end result (experiment
// F8): a realistic predictor steering the protection wrapper, compared
// against the bare base policy and the oracle ceiling.
type DrivenRow struct {
	Workload  string
	Predictor string

	BaseMisses   uint64
	DrivenMisses uint64
	OracleMisses uint64

	Reduction       float64 // driven vs. base
	OracleReduction float64 // oracle vs. base (the ceiling)
	Protector       core.Stats
}

// PredictorDriven runs the F8 experiment for each workload and predictor
// under the LRU base policy at the given strength. Every leg of one
// workload — the bare base, the oracle ceiling, and each driven
// predictor — is a lane of one fused stream pass.
func (s *Suite) PredictorDriven(llcSize, llcWays int, cfg predictor.Config, names []string, opts core.Options) ([]DrivenRow, error) {
	if len(names) == 0 {
		names = []string{"addr", "pc"}
	}
	// Lane 0 is bare LRU (the base), lane 1 the oracle ceiling, and
	// lanes 2.. one protector per realistic predictor, which the lane
	// consults and trains.
	lanes := []lane{{policy: "lru", size: llcSize, ways: llcWays},
		{policy: "lru", size: llcSize, ways: llcWays, prot: &opts, factor: oracle.HorizonFactor}}
	for _, n := range names {
		lanes = append(lanes, lane{policy: "lru", size: llcSize, ways: llcWays, prot: &opts, pred: n, cfg: cfg})
	}
	return perStream(s, "predictor driven", func(st *Stream) ([]DrivenRow, error) {
		// Every F8 column is a miss count or a protector counter.
		results, prot, err := s.replay(st, sharing.CountsOnly, lanes)
		if err != nil {
			return nil, err
		}
		base, orc := results[0], results[1]
		rows := make([]DrivenRow, len(names))
		for p := range names {
			rows[p] = DrivenRow{
				Workload:        st.Model.Name,
				Predictor:       names[p],
				BaseMisses:      base.Misses,
				DrivenMisses:    results[2+p].Misses,
				OracleMisses:    orc.Misses,
				Reduction:       oracle.MissReduction(base, results[2+p]),
				OracleReduction: oracle.MissReduction(base, orc),
				Protector:       prot[2+p],
			}
		}
		return rows, nil
	})
}

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
		out, err := s.replay(st, sharing.Tracked, []lane{{policy: "lru", size: llcSize, ways: llcWays}})
		if err != nil {
			return nil, err
		}
		res := out[0].res
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
// The hint column comes from the mem pool, built over the stream's known
// block count, and goes back once the profile is taken.
func (s *Suite) reuseDistances(llcSize int) ([]reuseRow, error) {
	horizon := []int64{oracle.Horizon(llcSize, oracle.HorizonFactor)}
	return perStream(s, "reuse distances", func(st *Stream) ([]reuseRow, error) {
		hints := oracle.Columns(st.Accesses, st.NumBlocks, horizon)[0]
		prof, err := reuse.Analyze(st.Accesses, hints)
		mem.Release(hints)
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
		out, err := s.replay(st, sharing.SharedHitsOnly, lanes)
		if err != nil {
			return nil, err
		}
		// Fused results arrive grouped per workload, so LRU normalization
		// reads straight from this group — no cross-row second pass.
		var lruMisses uint64
		for _, o := range out {
			if o.res.Policy == "lru" {
				lruMisses = o.res.Misses
			}
		}
		rows := make([]PolicyRow, len(out))
		for p, o := range out {
			res := o.res
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
	return firstTable(s.oracleTables([]int{llcSize}, []int{llcWays}, names, []core.Options{opts}))
}

// oracleTables runs the oracle study of one table per (size, ways,
// options) triple, size-major, then ways-major: per workload, one fused
// replay of a bare lane per (size, ways, policy) base and a protected
// lane per (table, policy). Every protected lane shares the base lane of
// its geometry and policy and, at one LLC size, one hint column. A
// table's rows are its policies', in name order. No row reads the
// tracked census, so the replay runs at sharing.SharedHitsOnly.
func (s *Suite) oracleTables(sizes, ways []int, names []string, opts []core.Options) ([][]OracleRow, error) {
	if len(names) == 0 {
		names = []string{"lru"}
	}
	var lanes []lane
	for _, size := range sizes {
		for _, w := range ways {
			for _, n := range names {
				lanes = append(lanes, lane{policy: n, size: size, ways: w})
			}
		}
	}
	bases := len(lanes)
	for _, size := range sizes {
		for _, w := range ways {
			for o := range opts {
				for _, n := range names {
					lanes = append(lanes, lane{policy: n, size: size, ways: w, protected: true, prot: opts[o], factor: oracle.HorizonFactor})
				}
			}
		}
	}
	n := len(sizes) * len(ways) * len(opts)
	return perStreamTables(s, "oracle study", n, func(st *Stream) ([][]OracleRow, error) {
		out, err := s.replay(st, sharing.SharedHitsOnly, lanes)
		if err != nil {
			return nil, err
		}
		tables := make([][]OracleRow, n)
		for i := range lanes[bases:] {
			t, p := i/len(names), i%len(names)
			base, orc := out[t/len(opts)*len(names)+p].res, out[bases+i].res
			tables[t] = append(tables[t], OracleRow{
				Workload:            st.Model.Name,
				Policy:              names[p],
				BaseMisses:          base.Misses,
				OracleMisses:        orc.Misses,
				Reduction:           oracle.MissReduction(base, orc),
				BaseSharedHitFrac:   base.SharedHitFraction(),
				OracleSharedHitFrac: orc.SharedHitFraction(),
				AMATSpeedup:         defaultLatency().amatSpeedup(st, base.Hits, base.Misses, orc.Hits, orc.Misses),
				Protector:           out[bases+i].prot,
			})
		}
		return tables, nil
	})
}

// lane is one replay lane of an experiment, stated as a value: the base
// policy's catalogue name and the LLC geometry; for a protected lane its
// protection options and hint source, the named predictor built with
// cfg, or else the oracle's SharedHints column at factor × the LLC's
// capacity (oracle.HorizonFactor); for a scored lane (bare, with a
// predictor named) the predictor it scores without steering. A lane is
// comparable, and its own memo key (laneKey).
type lane struct {
	policy     string
	size, ways int
	protected  bool
	prot       core.Options
	factor     int
	pred       string
	cfg        predictor.Config
}

// scored reports whether l scores its predictor without steering.
func (l lane) scored() bool { return !l.protected && l.pred != "" }

// base is l's base geometry: the bare lane of its policy, size and ways.
func (l lane) base() lane { return lane{policy: l.policy, size: l.size, ways: l.ways} }

// outcome is one lane's replay result: the lane's Result (shared by the
// scored lanes of one base geometry), and a protected lane's protector
// counters or a scored lane's confusion matrix.
type outcome struct {
	res  *sharing.Result
	prot core.Stats
	pred predictor.PredStats
}

// replay returns each lane's outcome over st at tier (or a higher one),
// by lane index. More than predictor.MaxScored scored lanes over one base
// geometry are refused: they fuse into one scored policy. With a lane
// memo (Config.Lanes) it takes every lane the memo serves from it and
// replays only the rest, storing their outcomes once the replay
// succeeds; without one it replays every lane.
func (s *Suite) replay(st *Stream, tier sharing.Tier, lanes []lane) ([]outcome, error) {
	fused := map[lane]int{} // scored lanes per base geometry
	for _, l := range lanes {
		if l.scored() {
			if fused[l.base()]++; fused[l.base()] > predictor.MaxScored {
				return nil, fmt.Errorf("sim: more than %d scored predictors over %s at %d bytes, %d ways", predictor.MaxScored, l.policy, l.size, l.ways)
			}
		}
	}
	memo := s.Config.Lanes
	if memo == nil {
		return s.replayLanes(st, tier, lanes)
	}
	out := make([]outcome, len(lanes))
	id := s.streamID(st)
	var run []lane // the lanes the memo does not serve, whose res stays nil
	for i, l := range lanes {
		if e, ok := memo.lookup(laneKey{l, id}, tier); ok {
			out[i] = e.outcome
		} else {
			run = append(run, l)
		}
	}
	if len(run) == 0 {
		return out, nil
	}
	got, err := s.replayLanes(st, tier, run)
	if err != nil {
		return nil, err
	}
	for i := range out {
		if out[i].res == nil {
			out[i], got = got[0], got[1:]
			memo.store(laneKey{lanes[i], id}, memoEntry{tier, out[i]})
		}
	}
	return out, nil
}

// replayLanes replays lanes over st in one sharing.ReplayMulti at tier,
// and returns each lane's outcome, by lane index. The hint columns go
// back to the mem pool when the replay returns.
func (s *Suite) replayLanes(st *Stream, tier sharing.Tier, lanes []lane) ([]outcome, error) {
	pols, at, cols, err := s.lanePolicies(st, lanes)
	defer func() {
		for _, c := range cols {
			mem.Release(c)
		}
	}()
	if err != nil {
		return nil, err
	}
	configs := make([]sharing.LLCConfig, len(pols))
	for i, l := range lanes {
		// ReplayMulti calls NewPolicy once per lane.
		configs[at[i]] = sharing.LLCConfig{Size: l.size, Ways: l.ways, NewPolicy: func() cache.Policy { return pols[at[i]] }}
	}
	opt := st.ReplayOptions(0, s.context())
	opt.Tier = tier
	results, err := sharing.ReplayMulti(st.Accesses, configs, opt)
	if err != nil {
		return nil, err
	}
	out := make([]outcome, len(lanes))
	next := make([]int, len(pols)) // a scored policy's next predictor
	for i, p := range at {
		out[i].res = results[p]
		switch pol := pols[p].(type) {
		case *core.Lane:
			out[i].prot = pol.Stats()
		case *predictor.Scored:
			out[i].pred = pol.Stats()[next[p]]
			next[p]++
		}
	}
	return out, nil
}

// lanePolicies is where an experiment lane becomes a policy: the base
// from policy.ByName under the suite seed; for a protected lane a
// core.Lane over core.NewProtectorOpts of it, hinted by an oracle column
// or by a predictor the lane drives; and for the scored lanes of one base
// geometry one predictor.Scored over one base, carrying their predictors
// in lane order. It returns the policies to replay and each lane's index
// among them. One backward pass builds the hint column of every distinct
// horizon (a trace property, shared by every oracle lane at that horizon
// whatever its policy, ways or options) from the mem pool; the caller
// releases cols, error or not.
func (s *Suite) lanePolicies(st *Stream, lanes []lane) (pols []cache.Policy, at []int, cols [][]bool, err error) {
	var horizons []int64
	for _, l := range lanes {
		if !l.protected || l.pred != "" {
			continue
		}
		if l.factor < 1 {
			return nil, nil, nil, fmt.Errorf("sim: horizon factor %d < 1", l.factor)
		}
		if h := oracle.Horizon(l.size, l.factor); !slices.Contains(horizons, h) {
			horizons = append(horizons, h)
		}
	}
	cols = oracle.Columns(st.Accesses, st.NumBlocks, horizons)
	at = make([]int, len(lanes))
	fused := map[lane]int{}                  // a base geometry's scored policy
	preds := map[int][]predictor.Predictor{} // what a scored policy carries
	for i, l := range lanes {
		g, ok := fused[l.base()]
		if !ok || !l.scored() {
			f, err := policy.ByName(l.policy, s.Config.Seed)
			if err != nil {
				return nil, nil, cols, err
			}
			g = len(pols)
			pols = append(pols, f())
		}
		at[i] = g
		var pred predictor.Predictor
		if l.pred != "" {
			if pred, err = newPredictor(l.pred, l.cfg, st); err != nil {
				return nil, nil, cols, err
			}
		}
		switch {
		case l.scored():
			fused[l.base()], preds[g] = g, append(preds[g], pred)
		case pred != nil:
			pols[g] = core.NewLane(core.NewProtectorOpts(pols[g], l.prot), predictor.NewDriven(pred))
		case l.protected:
			pols[g] = core.NewLane(core.NewProtectorOpts(pols[g], l.prot), oracle.Hints(cols[slices.Index(horizons, oracle.Horizon(l.size, l.factor))]))
		}
	}
	for g, ps := range preds {
		pols[g] = predictor.NewScored(pols[g], ps)
	}
	return pols, at, cols, nil
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
		lanes = append(lanes, lane{policy: "lru", size: llcSize, ways: llcWays, protected: true, prot: opts, factor: f})
	}
	return perStream(s, "horizon sweep", func(st *Stream) ([]horizonRow, error) {
		out, err := s.replay(st, sharing.CountsOnly, lanes)
		if err != nil {
			return nil, err
		}
		rows := make([]horizonRow, len(factors))
		for f, o := range out[1:] {
			rows[f] = horizonRow{Workload: st.Model.Name, Factor: factors[f], Reduction: oracle.MissReduction(out[0].res, o.res)}
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
// in a scored LRU lane each, which one replay per workload fuses: table t
// holds the predictors built with cfgs[t], in name order.
func (s *Suite) predictorTables(llcSize, llcWays int, cfgs []predictor.Config, names []string) ([][]PredictorRow, error) {
	if len(names) == 0 {
		names = predictorNames()
	}
	var lanes []lane
	for _, cfg := range cfgs {
		for _, n := range names {
			lanes = append(lanes, lane{policy: "lru", size: llcSize, ways: llcWays, pred: n, cfg: cfg})
		}
	}
	return perStreamTables(s, "predictor accuracy", len(cfgs), func(st *Stream) ([][]PredictorRow, error) {
		// The rows come from the lanes' matrices, so the replay counts only.
		out, err := s.replay(st, sharing.CountsOnly, lanes)
		if err != nil {
			return nil, err
		}
		tables := make([][]PredictorRow, len(cfgs))
		for i, o := range out {
			ps := o.pred
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
		{policy: "lru", size: llcSize, ways: llcWays, protected: true, prot: opts, factor: oracle.HorizonFactor}}
	for _, n := range names {
		lanes = append(lanes, lane{policy: "lru", size: llcSize, ways: llcWays, protected: true, prot: opts, pred: n, cfg: cfg})
	}
	return perStream(s, "predictor driven", func(st *Stream) ([]DrivenRow, error) {
		// Every F8 column is a miss count or a protector counter.
		out, err := s.replay(st, sharing.CountsOnly, lanes)
		if err != nil {
			return nil, err
		}
		base, orc := out[0].res, out[1].res
		rows := make([]DrivenRow, len(names))
		for p, d := range out[2:] {
			rows[p] = DrivenRow{
				Workload:        st.Model.Name,
				Predictor:       names[p],
				BaseMisses:      base.Misses,
				DrivenMisses:    d.res.Misses,
				OracleMisses:    orc.Misses,
				Reduction:       oracle.MissReduction(base, d.res),
				OracleReduction: oracle.MissReduction(base, orc),
				Protector:       d.prot,
			}
		}
		return rows, nil
	})
}

package sim

import (
	"fmt"
	"reflect"
	"testing"

	"sharellc/internal/core"
	"sharellc/internal/mem"
	"sharellc/internal/oracle"
	"sharellc/internal/policy"
	"sharellc/internal/predictor"
	"sharellc/internal/sharing"
	"sharellc/internal/workloads"
)

// TestLanesRefusesBadFactor: an oracle lane's horizon factor is at least 1.
func TestLanesRefusesBadFactor(t *testing.T) {
	s := testSuite(t)
	opts := core.Options{Strength: core.Full}
	for _, f := range []int{0, -1} {
		if _, err := s.replay(s.Streams[0], sharing.CountsOnly, []lane{{policy: "lru", size: tSize, ways: tWays, protected: true, prot: opts, factor: f}}); err == nil {
			t.Errorf("the builder accepted horizon factor %d", f)
		}
	}
}

// TestLanesRefuseSeventeenScored: the scored lanes of one base geometry
// fuse into one predictor.Scored, whose verdict word holds 16
// predictors. Sixteen replay; a seventeenth is refused before any lane
// is looked up or replayed, even when the memo holds some of them; and
// seventeen over two geometries replay.
func TestLanesRefuseSeventeenScored(t *testing.T) {
	s := testSuite(t)
	s.Config.Lanes = NewLaneMemo()
	var lanes []lane
	for bits := 1; bits <= predictor.MaxScored+1; bits++ {
		lanes = append(lanes, lane{policy: "lru", size: tSize, ways: tWays, pred: "addr", cfg: predictor.Config{TableBits: bits}})
	}
	if _, err := s.replay(s.Streams[0], sharing.CountsOnly, lanes[:6]); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.Config.Lanes.Counts()
	if _, err := s.replay(s.Streams[0], sharing.CountsOnly, lanes); err == nil {
		t.Errorf("%d scored predictors over one base replayed", len(lanes))
	}
	if h, m := s.Config.Lanes.Counts(); h != hits || m != misses || s.Config.Lanes.entries.Len() != 6 {
		t.Errorf("the refused replay looked up lanes: hits %d → %d, misses %d → %d", hits, h, misses, m)
	}
	out, err := s.replay(s.Streams[0], sharing.CountsOnly, lanes[:predictor.MaxScored])
	if err != nil {
		t.Fatal(err)
	}
	if last := out[len(out)-1].pred; last.Total() == 0 {
		t.Error("the sixteenth scored predictor scored nothing")
	}
	lanes[0].ways *= 2
	if _, err := s.replay(s.Streams[0], sharing.CountsOnly, lanes); err != nil {
		t.Errorf("seventeen scored predictors over two geometries: %v", err)
	}
}

// TestLanesShareHintColumns pins one hint column per distinct horizon:
// A4's four factors get four columns; F5, A1 and A3 lanes at one size,
// whatever their policies, ways and strengths, get one, and a second
// size gets a second. F8's driven lanes read none.
func TestLanesShareHintColumns(t *testing.T) {
	s := testSuite(t)
	full, insert := core.Options{Strength: core.Full}, core.Options{Strength: core.InsertOnly}
	oracleLanes := func(size int, factors ...int) []lane {
		var lanes []lane
		for _, f := range factors {
			for _, w := range []int{4, 8, 16} {
				for _, n := range []string{"lru", "srrip"} {
					lanes = append(lanes, lane{policy: n, size: size, ways: w},
						lane{policy: n, size: size, ways: w, protected: true, prot: full, factor: f},
						lane{policy: n, size: size, ways: w, protected: true, prot: insert, factor: f})
				}
			}
		}
		return lanes
	}
	pcfg := predictor.DefaultConfig()
	driven := []lane{{policy: "lru", size: tSize, ways: tWays, protected: true, prot: full, pred: "addr", cfg: pcfg},
		{policy: "lru", size: tSize, ways: tWays, protected: true, prot: full, pred: "coherence", cfg: pcfg}}
	for _, c := range []struct {
		name  string
		lanes []lane
		cols  int
	}{
		{"a4 factors", oracleLanes(tSize, 1, 2, 4, 8), 4},
		{"one size", oracleLanes(tSize, oracle.HorizonFactor), 1},
		{"two sizes", append(oracleLanes(tSize, oracle.HorizonFactor), oracleLanes(2*tSize, oracle.HorizonFactor)...), 2},
		{"driven", driven, 0},
	} {
		_, _, cols, err := s.lanePolicies(s.Streams[0], c.lanes)
		for _, col := range cols {
			mem.Release(col)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(cols) != c.cols {
			t.Errorf("%s: %d hint columns, want %d", c.name, len(cols), c.cols)
		}
	}
}

// TestOracleFusedMatchesSolo holds the builder's fused replays to their
// lanes replayed alone: every lane of one replay — every catalogue policy
// bare and protected, LRU at 8, 16 and 32 ways, two strengths over one
// base, two horizons, a predictor-driven lane, scored lanes over two
// policies, two sizes and two associativities, two of them fused into
// one scored policy — must reproduce its solo replay's result, protector
// counters and confusion matrix exactly.
func TestOracleFusedMatchesSolo(t *testing.T) {
	s := testSuite(t)
	full, insert := core.Options{Strength: core.Full}, core.Options{Strength: core.InsertOnly}
	var lanes []lane
	for _, n := range policy.Names(s.Config.Seed) {
		lanes = append(lanes, lane{policy: n, size: tSize, ways: tWays}, lane{policy: n, size: tSize, ways: tWays, protected: true, prot: full, factor: oracle.HorizonFactor})
	}
	for _, w := range []int{8, 16, 32} {
		lanes = append(lanes, lane{policy: "lru", size: tSize, ways: w, protected: true, prot: full, factor: oracle.HorizonFactor})
	}
	lanes = append(lanes, lane{policy: "lru", size: tSize, ways: 16, protected: true, prot: insert, factor: oracle.HorizonFactor},
		lane{policy: "lru", size: tSize, ways: tWays, protected: true, prot: full, factor: 1},
		lane{policy: "lru", size: tSize, ways: tWays, protected: true, prot: full, pred: "pc", cfg: predictor.DefaultConfig()},
		lane{policy: "lru", size: tSize, ways: tWays, pred: "coherence", cfg: predictor.DefaultConfig()},
		lane{policy: "srrip", size: tSize, ways: tWays, pred: "tournament", cfg: predictor.DefaultConfig()},
		lane{policy: "lru", size: tSize, ways: tWays, pred: "pc", cfg: predictor.DefaultConfig()},
		lane{policy: "lru", size: 2 * tSize, ways: tWays, pred: "addr", cfg: predictor.DefaultConfig()},
		lane{policy: "lru", size: tSize, ways: 4, pred: "addr", cfg: predictor.DefaultConfig()})
	for _, st := range s.Streams {
		got, err := s.replay(st, sharing.Tracked, lanes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range lanes {
			want, err := s.replay(st, sharing.Tracked, lanes[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want[0]) {
				t.Errorf("%s: lane %d (%s) differs from its solo replay", st.Model.Name, i, want[0].res.Policy)
			}
		}
	}
}

// refSuite is the reference diff's suite: four applications at 5 % scale
// on the test machine, whose streams run long enough for the hint-rate
// gate to halve its counts.
func refSuite(t *testing.T) *Suite {
	t.Helper()
	cfg := testConfig(t)
	cfg.Scale, cfg.Models = 0.05, nil
	for _, name := range []string{"canneal", "streamcluster", "dedup", "ocean"} {
		m, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Models = append(cfg.Models, m)
	}
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// add sums b into a, counter by counter.
func (a *refStats) add(b refStats) {
	a.ProtectedFills += b.ProtectedFills
	a.Promotions += b.Promotions
	a.Demotions += b.Demotions
	a.Exclusions += b.Exclusions
	a.Fulfilled += b.Fulfilled
	a.Expired += b.Expired
	a.Lockouts += b.Lockouts
}

// TestProtectedLaneMatchesReference diffs the builder's oracle + LRU
// lanes, and their bare bases, against the protected-lane reference
// (protref_test.go) at 4, 16, 64 and 128 ways, Full and insert-only, on
// four suite streams: hits, misses and every protector counter must
// agree. Up to 64 ways the lane runs the protected-LRU kernel, at 128
// ways the generic loop over core.Lane's methods. Every protection
// mechanism must fire somewhere, or the diff shows nothing.
func TestProtectedLaneMatchesReference(t *testing.T) {
	s := refSuite(t)
	var fired refStats
	var halvings, wraps uint64
	for _, st := range s.Streams {
		hints := refHints(st.Accesses, oracle.Horizon(tSize, oracle.HorizonFactor))
		for _, ways := range []int{4, 16, 64, 128} {
			for _, opts := range []core.Options{{Strength: core.Full}, {Strength: core.InsertOnly}} {
				at := fmt.Sprintf("%s, %d ways, %s", st.Model.Name, ways, opts.Strength)
				out, err := s.replay(st, sharing.CountsOnly, []lane{{policy: "lru", size: tSize, ways: ways},
					{policy: "lru", size: tSize, ways: ways, protected: true, prot: opts, factor: oracle.HorizonFactor}})
				if err != nil {
					t.Fatal(err)
				}
				base := refReplay(st.Accesses, tSize, ways, nil, false)
				ref := refReplay(st.Accesses, tSize, ways, hints, opts.Strength == core.Full)
				if r := out[0].res; r.Hits != base.hits || r.Misses != base.miss {
					t.Errorf("%s: bare lane %d hits / %d misses, reference %d / %d", at, r.Hits, r.Misses, base.hits, base.miss)
				}
				if r := out[1].res; r.Hits != ref.hits || r.Misses != ref.miss {
					t.Errorf("%s: oracle lane %d hits / %d misses, reference %d / %d", at, r.Hits, r.Misses, ref.hits, ref.miss)
				}
				if got := refStats(out[1].prot); got != ref.stats {
					t.Errorf("%s: protector counters %+v, reference %+v", at, got, ref.stats)
				}
				fired.add(ref.stats)
				halvings, wraps = halvings+ref.halvings, wraps+ref.wraps
				if ref.miss <= uint64(tSize/64) {
					t.Errorf("%s: %d misses fill the LLC at most once", at, ref.miss)
				}
			}
		}
	}
	for name, n := range map[string]uint64{"gate halving": halvings, "wrapped demotion": wraps, "protected fill": fired.ProtectedFills, "demotion": fired.Demotions,
		"exclusion": fired.Exclusions, "fulfilment": fired.Fulfilled, "expiry": fired.Expired, "lockout": fired.Lockouts} {
		if n == 0 {
			t.Errorf("no %s in any replay", name)
		}
	}
}

package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"sharellc/internal/core"
	"sharellc/internal/oracle"
	"sharellc/internal/predictor"
	"sharellc/internal/report"
	"sharellc/internal/sharing"
)

// TestSuiteWithoutMemoReplaysEveryLane: a suite built by NewSuiteContext
// without a lane memo consults none, so two replays of one lane return
// two results (equal, but not the same). Given a memo, the same suite
// hands the first replay's result to the second.
func TestSuiteWithoutMemoReplaysEveryLane(t *testing.T) {
	s := testSuite(t)
	if s.Config.Lanes != nil {
		t.Fatal("NewSuite gave the suite a lane memo")
	}
	opts := core.Options{Strength: core.Full}
	lanes := []lane{{policy: "lru", size: tSize, ways: tWays},
		{policy: "lru", size: tSize, ways: tWays, protected: true, prot: opts, factor: oracle.HorizonFactor}}
	twice := func() (first, second []outcome) {
		t.Helper()
		var err error
		for _, out := range []*[]outcome{&first, &second} {
			if *out, err = s.replay(s.Streams[0], sharing.Tracked, lanes); err != nil {
				t.Fatal(err)
			}
		}
		return first, second
	}
	first, second := twice()
	for i := range lanes {
		if first[i].res == second[i].res {
			t.Errorf("lane %d: a suite without a memo returned one result to two replays", i)
		}
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("lane %d: two replays differ:\n%+v\n%+v", i, first[i], second[i])
		}
	}

	s.Config.Lanes = NewLaneMemo()
	first, second = twice()
	for i := range lanes {
		if first[i] != second[i] {
			t.Errorf("lane %d: the memo did not serve the second replay", i)
		}
	}
	if hits, misses := s.Config.Lanes.Counts(); hits != 2 || misses != 2 {
		t.Errorf("memo counted %d hits and %d misses, want 2 and 2", hits, misses)
	}
}

// atTier is r with the fields a replay at tier leaves zero zeroed.
func atTier(r *sharing.Result, tier sharing.Tier) sharing.Result {
	out := sharing.Result{Policy: r.Policy, Accesses: r.Accesses, Hits: r.Hits, Misses: r.Misses}
	switch tier {
	case sharing.Tracked:
		return *r
	case sharing.SharedHitsOnly:
		out.SharedHits, out.PrivateHits = r.SharedHits, r.PrivateHits
		out.Residencies, out.SharedResidencies = r.Residencies, r.SharedResidencies
	}
	return out
}

// TestLaneMemoTiers holds the memo to its tier rule: a stored result
// serves its own tier and every lower one, a request for a higher tier
// replays the lane and replaces the entry, and a result stored at a
// lower tier never replaces a higher one. Whatever the memo serves
// equals a memo-less replay at the requested tier in every field that
// tier fills, protector counters included.
func TestLaneMemoTiers(t *testing.T) {
	s := testSuite(t)
	st := s.Streams[1]
	opts := core.Options{Strength: core.Full}
	lanes := []lane{{policy: "lru", size: tSize, ways: tWays},
		{policy: "srrip", size: tSize, ways: tWays, protected: true, prot: opts, factor: oracle.HorizonFactor}}
	fresh := map[sharing.Tier][]outcome{}
	for _, tier := range []sharing.Tier{sharing.Tracked, sharing.SharedHitsOnly, sharing.CountsOnly} {
		out, err := s.replay(st, tier, lanes)
		if err != nil {
			t.Fatal(err)
		}
		fresh[tier] = out
	}

	memo := NewLaneMemo()
	m := *s
	m.Config.Lanes = memo
	// Each step asks for a tier; hit says whether the memo serves it.
	for i, step := range []struct {
		tier sharing.Tier
		hit  bool
	}{
		{sharing.CountsOnly, false},
		{sharing.CountsOnly, true},
		{sharing.SharedHitsOnly, false}, // higher: replayed, replaces
		{sharing.CountsOnly, true},
		{sharing.SharedHitsOnly, true},
		{sharing.Tracked, false},
		{sharing.CountsOnly, true},
		{sharing.SharedHitsOnly, true},
		{sharing.Tracked, true},
	} {
		h0, m0 := memo.Counts()
		out, err := m.replay(st, step.tier, lanes)
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := memo.Counts()
		if hit := h1-h0 == uint64(len(lanes)) && m1 == m0; hit != step.hit {
			t.Errorf("step %d (tier %d): hits +%d, misses +%d; want a hit %v", i, step.tier, h1-h0, m1-m0, step.hit)
		}
		for l, o := range out {
			want := fresh[step.tier][l]
			if got, want := atTier(o.res, step.tier), atTier(want.res, step.tier); !reflect.DeepEqual(got, want) {
				t.Errorf("step %d, lane %d: served %+v, want %+v", i, l, got, want)
			}
			if o.prot != want.prot {
				t.Errorf("step %d, lane %d: protector %+v, want %+v", i, l, o.prot, want.prot)
			}
		}
	}

	// A result stored at a lower tier leaves a higher entry in place.
	k := laneKey{lanes[0], s.streamID(st)}
	memo.store(k, memoEntry{sharing.CountsOnly, fresh[sharing.CountsOnly][0]})
	if e, ok := memo.lookup(k, sharing.Tracked); !ok || e.tier != sharing.Tracked {
		t.Errorf("a counts-only store replaced the tracked entry: %+v, %v", e, ok)
	}
}

// TestLaneMemoKeys: a key is the lane value and the stream, so lanes
// that differ in anything their replay reads get different keys —
// policy, geometry, protection, hint source, a scored lane's predictor
// or its config, stream and seed. A scored, a driven and a bare lane over
// one base share no memo entry: each is served its own outcome.
func TestLaneMemoKeys(t *testing.T) {
	s := testSuite(t)
	id := s.streamID(s.Streams[0])
	full, insert := core.Options{Strength: core.Full}, core.Options{Strength: core.InsertOnly}
	pcfg := predictor.DefaultConfig()
	base := lane{policy: "lru", size: tSize, ways: tWays}
	driven := lane{policy: "lru", size: tSize, ways: tWays, protected: true, prot: full, pred: "addr", cfg: pcfg}
	scored := lane{policy: "lru", size: tSize, ways: tWays, pred: "addr", cfg: pcfg}
	distinct := []lane{base,
		{policy: "srrip", size: tSize, ways: tWays},
		{policy: "lru", size: 2 * tSize, ways: tWays},
		{policy: "lru", size: tSize, ways: 2 * tWays},
		{policy: "lru", size: tSize, ways: tWays, protected: true, prot: full, factor: oracle.HorizonFactor},
		{policy: "lru", size: tSize, ways: tWays, protected: true, prot: insert, factor: oracle.HorizonFactor},
		{policy: "lru", size: tSize, ways: tWays, protected: true, prot: full, factor: 1},
		driven,
		{policy: "lru", size: tSize, ways: tWays, protected: true, prot: full, pred: "pc", cfg: pcfg},
		scored,
		{policy: "lru", size: tSize, ways: tWays, pred: "pc", cfg: pcfg},
		{policy: "lru", size: tSize, ways: tWays, pred: "addr", cfg: predictor.Config{TableBits: 8}},
		{policy: "srrip", size: tSize, ways: tWays, pred: "addr", cfg: pcfg},
	}
	seen := map[laneKey]int{}
	for i, l := range distinct {
		k := laneKey{l, id}
		if j, ok := seen[k]; ok {
			t.Errorf("lanes %d and %d share a key", j, i)
		}
		seen[k] = i
	}
	if (laneKey{base, id}) == (laneKey{base, s.streamID(s.Streams[1])}) {
		t.Error("two workloads' streams share a key")
	}
	reseeded := *s
	reseeded.Config.Seed++
	if (laneKey{base, id}) == (laneKey{base, reseeded.streamID(s.Streams[0])}) {
		t.Error("two seeds share a key")
	}

	// Each of the three lanes over LRU is replayed alone into one memo,
	// then all three are served at once: every outcome is its own lane's.
	m := *s
	m.Config.Lanes = NewLaneMemo()
	lanes := []lane{base, driven, scored}
	var want []outcome
	for _, l := range lanes {
		out, err := m.replay(m.Streams[0], sharing.CountsOnly, []lane{l})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out[0])
	}
	got, err := m.replay(m.Streams[0], sharing.CountsOnly, lanes)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := m.Config.Lanes.Counts(); hits != 3 || misses != 3 {
		t.Errorf("memo counted %d hits and %d misses, want 3 and 3", hits, misses)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served %+v, want %+v", got, want)
	}
	if want[1].prot == (core.Stats{}) || want[2].pred.Total() == 0 || want[0].pred.Total() != 0 || want[2].prot != (core.Stats{}) {
		t.Errorf("a lane's outcome lacks its kind's counters: bare %+v, driven %+v, scored %+v", want[0], want[1], want[2])
	}
}

// TestLaneMemoStoresOnlySuccess: a replay that fails — a bad lane, or a
// cancelled context — stores nothing, not even the lanes that would have
// succeeded beside it.
func TestLaneMemoStoresOnlySuccess(t *testing.T) {
	s := testSuite(t)
	memo := NewLaneMemo()
	s.Config.Lanes = memo
	opts := core.Options{Strength: core.Full}
	bad := []lane{{policy: "lru", size: tSize, ways: tWays},
		{policy: "lru", size: tSize, ways: tWays, protected: true, prot: opts, factor: 0}}
	if _, err := s.replay(s.Streams[0], sharing.CountsOnly, bad); err == nil {
		t.Fatal("a lane of horizon factor 0 replayed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := *s
	c.ctx = ctx
	if _, err := c.replay(s.Streams[0], sharing.CountsOnly, bad[:1]); err == nil {
		t.Fatal("a cancelled replay succeeded")
	}
	if n := memo.entries.Len(); n != 0 {
		t.Errorf("failed replays stored %d entries", n)
	}
}

// TestRunExperimentsSharesLanes: the experiments of one RunExperiments
// call share its lane memo, so F3 and F5 take F1's tracked LRU lane, F8
// takes F5's oracle cell and its base, and A2 takes F7's 2^14-entry addr
// and pc predictors, and every table equals the one a suite without a
// memo renders.
func TestRunExperimentsSharesLanes(t *testing.T) {
	cfg := testConfig(t)
	cfg.Lanes = NewLaneMemo()
	o := DefaultExpOptions()
	o.LLCSize, o.LLCWays = tSize, tWays
	ids := []string{"f1", "f3", "f5", "f8", "f7", "a2"}
	var got []*report.Table
	err := RunExperiments(context.Background(), cfg, ids, o, nil, func(tabs []*report.Table) error {
		got = append(got, tabs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	workloads := uint64(len(cfg.Models))
	// Per workload: f1 misses on its one lane; f3 hits it; f5 hits it
	// as its 1× base and misses on its 2× base and both oracle lanes;
	// f8 hits f5's 1× base and oracle lane and misses on its two driven
	// lanes; f7 misses on its six scored predictors; a2 hits f7's addr
	// and pc at its default 2^14 entries and replays the other six of
	// its eight.
	if hits, misses := cfg.Lanes.Counts(); hits != 6*workloads || misses != 18*workloads {
		t.Errorf("memo counted %d hits and %d misses, want %d and %d", hits, misses, 6*workloads, 18*workloads)
	}
	s, err := NewSuite(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var want []*report.Table
	for _, id := range ids {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tabs, err := e.Run(s, o)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tabs...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d tables, want %d", len(got), len(want))
	}
	for i := range got {
		var g, w bytes.Buffer
		if err := got[i].Render(&g); err != nil {
			t.Fatal(err)
		}
		if err := want[i].Render(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Errorf("table %d differs with the memo:\n%s\nwithout:\n%s", i, g.Bytes(), w.Bytes())
		}
	}
}

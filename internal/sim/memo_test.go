package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"sharellc/internal/core"
	"sharellc/internal/oracle"
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
		{policy: "lru", size: tSize, ways: tWays, prot: &opts, factor: oracle.HorizonFactor}}
	twice := func() (first, second []*sharing.Result) {
		t.Helper()
		var err error
		for _, res := range []*[]*sharing.Result{&first, &second} {
			if *res, _, err = s.replay(s.Streams[0], sharing.Tracked, lanes); err != nil {
				t.Fatal(err)
			}
		}
		return first, second
	}
	first, second := twice()
	for i := range lanes {
		if first[i] == second[i] {
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
		{policy: "srrip", size: tSize, ways: tWays, prot: &opts, factor: oracle.HorizonFactor}}
	fresh := map[sharing.Tier][]*sharing.Result{}
	var freshStats []core.Stats
	for _, tier := range []sharing.Tier{sharing.Tracked, sharing.SharedHitsOnly, sharing.CountsOnly} {
		res, stats, err := s.replay(st, tier, lanes)
		if err != nil {
			t.Fatal(err)
		}
		fresh[tier], freshStats = res, stats
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
		res, stats, err := m.replay(st, step.tier, lanes)
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := memo.Counts()
		if hit := h1-h0 == uint64(len(lanes)) && m1 == m0; hit != step.hit {
			t.Errorf("step %d (tier %d): hits +%d, misses +%d; want a hit %v", i, step.tier, h1-h0, m1-m0, step.hit)
		}
		for l := range lanes {
			if got, want := atTier(res[l], step.tier), atTier(fresh[step.tier][l], step.tier); !reflect.DeepEqual(got, want) {
				t.Errorf("step %d, lane %d: served %+v, want %+v", i, l, got, want)
			}
			if stats[l] != freshStats[l] {
				t.Errorf("step %d, lane %d: protector %+v, want %+v", i, l, stats[l], freshStats[l])
			}
		}
	}

	// A result stored at a lower tier leaves a higher entry in place.
	k := lanes[0].key(s.streamID(st))
	memo.store(k, memoEntry{tier: sharing.CountsOnly, res: fresh[sharing.CountsOnly][0]})
	if e, ok := memo.lookup(k, sharing.Tracked); !ok || e.tier != sharing.Tracked {
		t.Errorf("a counts-only store replaced the tracked entry: %+v, %v", e, ok)
	}
}

// TestLaneMemoKeys: lanes that differ in anything their replay reads get
// different keys — policy, geometry, protection, hint source, stream and
// seed — while a bare lane's unread hint fields do not split its key.
func TestLaneMemoKeys(t *testing.T) {
	s := testSuite(t)
	id := s.streamID(s.Streams[0])
	full, insert := core.Options{Strength: core.Full}, core.Options{Strength: core.InsertOnly}
	base := lane{policy: "lru", size: tSize, ways: tWays}
	oracleLane := lane{policy: "lru", size: tSize, ways: tWays, prot: &full, factor: oracle.HorizonFactor}
	distinct := []lane{base,
		{policy: "srrip", size: tSize, ways: tWays},
		{policy: "lru", size: 2 * tSize, ways: tWays},
		{policy: "lru", size: tSize, ways: 2 * tWays},
		oracleLane,
		{policy: "lru", size: tSize, ways: tWays, prot: &insert, factor: oracle.HorizonFactor},
		{policy: "lru", size: tSize, ways: tWays, prot: &full, factor: 1},
		{policy: "lru", size: tSize, ways: tWays, prot: &full, pred: "addr"},
		{policy: "lru", size: tSize, ways: tWays, prot: &full, pred: "pc"},
	}
	seen := map[laneKey]int{}
	for i, l := range distinct {
		k := l.key(id)
		if j, ok := seen[k]; ok {
			t.Errorf("lanes %d and %d share a key", j, i)
		}
		seen[k] = i
	}
	same := full
	if base.key(id) != (lane{policy: "lru", size: tSize, ways: tWays, factor: 3, pred: "addr"}).key(id) {
		t.Error("a bare lane's unread hint fields split its key")
	}
	if oracleLane.key(id) != (lane{policy: "lru", size: tSize, ways: tWays, prot: &same, factor: oracle.HorizonFactor}).key(id) {
		t.Error("two pointers to equal options split an oracle lane's key")
	}
	other := s.streamID(s.Streams[1])
	if base.key(id) == base.key(other) {
		t.Error("two workloads' streams share a key")
	}
	reseeded := *s
	reseeded.Config.Seed++
	if base.key(id) == base.key(reseeded.streamID(s.Streams[0])) {
		t.Error("two seeds share a key")
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
		{policy: "lru", size: tSize, ways: tWays, prot: &opts, factor: 0}}
	if _, _, err := s.replay(s.Streams[0], sharing.CountsOnly, bad); err == nil {
		t.Fatal("a lane of horizon factor 0 replayed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := *s
	c.ctx = ctx
	if _, _, err := c.replay(s.Streams[0], sharing.CountsOnly, bad[:1]); err == nil {
		t.Fatal("a cancelled replay succeeded")
	}
	if n := memo.entries.Len(); n != 0 {
		t.Errorf("failed replays stored %d entries", n)
	}
}

// TestRunExperimentsSharesLanes: the experiments of one RunExperiments
// call share its lane memo, so F3 and F5 take F1's tracked LRU lane and
// F8 takes F5's oracle cell and its base, and every table equals the one
// a suite without a memo renders.
func TestRunExperimentsSharesLanes(t *testing.T) {
	cfg := testConfig(t)
	cfg.Lanes = NewLaneMemo()
	o := DefaultExpOptions()
	o.LLCSize, o.LLCWays = tSize, tWays
	ids := []string{"f1", "f3", "f5", "f8"}
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
	// lanes.
	if hits, misses := cfg.Lanes.Counts(); hits != 4*workloads || misses != 6*workloads {
		t.Errorf("memo counted %d hits and %d misses, want %d and %d", hits, misses, 4*workloads, 6*workloads)
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

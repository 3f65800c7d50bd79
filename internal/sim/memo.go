package sim

import (
	"sync"

	"sharellc/internal/cache"
	"sharellc/internal/lru"
	"sharellc/internal/sharing"
	"sharellc/internal/workloads"
)

// laneMemoEntries bounds a LaneMemo. An entry takes about 1.1 KB (its
// key holds the workload model), 2.1 KB when its Result is tracked and
// keeps the two 64-entry degree histograms, so a full memo holds 2–4.3
// MB. The bound holds every distinct lane of `sharesim -exp all` (52 a
// workload, 1144 over the suite).
const laneMemoEntries = 2048

// LaneMemo remembers experiment lanes' replay outcomes, so that a lane
// that several experiments (or several jobs) replay over one stream runs
// once. It maps a lane key to the highest tier computed for it and the
// lane's outcome; past laneMemoEntries the least recently used entry
// goes. A stored result serves its own tier and every lower one (Tracked
// ⊇ SharedHitsOnly ⊇ CountsOnly); a request for a higher tier replays
// the lane and replaces the entry. Only a successful replay is stored. A
// scored lane's entry is its one predictor's, so a replay that scored it
// beside other predictors serves a request for it alone. A LaneMemo is
// safe for concurrent use; two suites that miss on one lane at once both
// replay it.
//
// The memo hands out its stored Results: callers read them and never
// write.
type LaneMemo struct {
	mu           sync.Mutex
	entries      *lru.Cache[laneKey, memoEntry]
	hits, misses uint64
}

// memoEntry is one stored lane: its outcome at tier.
type memoEntry struct {
	tier sharing.Tier
	outcome
}

// laneKey identifies one lane's replay over one stream: the lane value
// itself, and what streamcache.Key hashes of the stream: the scaled
// model, the private machine geometry and the seed, which also seeds the
// stochastic policies.
type laneKey struct {
	lane
	stream streamID
}

// streamID is the stream part of a laneKey.
type streamID struct {
	model   workloads.Model
	machine cache.Config // LLC fields zero: the stream does not depend on them
	seed    uint64
}

// NewLaneMemo returns an empty memo.
func NewLaneMemo() *LaneMemo {
	return &LaneMemo{entries: lru.New[laneKey, memoEntry](laneMemoEntries, nil)}
}

// Counts returns how many lane lookups the memo served and how many it
// sent to a replay.
func (m *LaneMemo) Counts() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// serves reports whether a result replayed at tier have fills every
// field a request at tier want reads: Tracked (0) fills the most,
// CountsOnly the least.
func serves(have, want sharing.Tier) bool { return have <= want }

// lookup returns k's entry when it serves tier, counting a hit or a miss.
func (m *LaneMemo) lookup(k laneKey, tier sharing.Tier) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries.Get(k)
	if ok && serves(e.tier, tier) {
		m.hits++
		return e, true
	}
	m.misses++
	return memoEntry{}, false
}

// store keeps e under k unless k's entry already serves e's tier (a
// concurrent replay stored it first).
func (m *LaneMemo) store(k laneKey, e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries.Get(k); ok && serves(old.tier, e.tier) {
		return
	}
	m.entries.Put(k, e, 1)
}

// streamID is st's memo identity under the suite's machine and seed.
func (s *Suite) streamID(st *Stream) streamID {
	machine := s.Config.Machine
	machine.LLCSize, machine.LLCWays = 0, 0
	return streamID{model: st.Model, machine: machine, seed: s.Config.Seed}
}

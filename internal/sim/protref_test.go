package sim

import "sharellc/internal/cache"

// The protected-lane reference: an oracle + LRU lane written from the
// protection rule alone, sharing no code with internal/core,
// internal/cache, internal/policy or internal/sharing beyond the stream
// record. Each set is a recency list; the rule is core's package comment
// read literally — promotion, demotion behind the hint-rate gate, victim
// exclusion, the skip budget, fulfilment and lockout — plus the one quirk
// the engine's LRU pins (TestLRUDemoteWrapsOnUnfilledSet): a demotion
// while the set still has a never-filled way wraps.

// Constants of the protection rule, restated rather than imported.
const (
	refSkipBudget = 8       // core's default skip budget
	refGateWindow = 1 << 15 // the hint-rate gate halves its counts every this many fills
	refGateDenom  = 32      // demotion runs while hinted fills are ≥ 1/32 of fills
)

// refStats are the reference's intervention counters, core.Stats field
// for field.
type refStats struct {
	ProtectedFills, Promotions, Demotions, Exclusions, Fulfilled, Expired, Lockouts uint64
}

// refLine is one resident block of a set.
type refLine struct {
	block uint64
	way   int // the way it occupies: ways fill in order, 0 first
	// wrapped marks a demotion that wrapped: LRU's own victim choice
	// ranks the line most recent, the protected choice least recent
	// (lowest way first among wrapped lines).
	wrapped   bool
	protected bool
	skips     int
	fillCore  uint8
}

// refSet is one set: its lines, most recent first.
type refSet struct{ lines []refLine }

// refLane is the reference of one protected (or, with no hints, bare)
// LRU lane.
type refLane struct {
	ways       int
	full       bool // Full strength: protected lines are excluded from victim choice
	sets       []refSet
	seen, hint uint64 // the hint-rate gate's fill counts
	stats      refStats
	hits, miss uint64
	// halvings and wraps count the gate's halvings and the wrapped
	// demotions, so a diff can show it reached both.
	halvings, wraps uint64
}

// refHints is the oracle's hint column computed by walking each block's
// NextUse chain: position i is hinted when a core other than i's touches
// the block within horizon positions.
func refHints(stream []cache.AccessInfo, horizon int64) []bool {
	hints := make([]bool, len(stream))
	for i := range stream {
		for j := stream[i].NextUse; j >= 0 && int64(j)-int64(i) <= horizon; j = stream[j].NextUse {
			if stream[j].Core != stream[i].Core {
				hints[i] = true
				break
			}
		}
	}
	return hints
}

// refReplay replays stream through a lane of size bytes and ways, hinted
// by hints (nil: never), at Full strength or insert-only.
func refReplay(stream []cache.AccessInfo, size, ways int, hints []bool, full bool) *refLane {
	l := &refLane{ways: ways, full: full, sets: make([]refSet, size/64/ways)}
	for i := range stream {
		a := &stream[i]
		set := &l.sets[a.Block%uint64(len(l.sets))]
		if k := set.find(a.Block); k >= 0 {
			l.hits++
			ln := set.touch(k)
			if ln.protected && a.Core != ln.fillCore {
				l.stats.Fulfilled++
				ln.skips = refSkipBudget
			}
			continue
		}
		l.miss++
		way := len(set.lines)
		if way == ways {
			way = l.evict(set)
		}
		set.lines = append([]refLine{{block: a.Block, way: way}}, set.lines...)
		l.fill(set, a, hints != nil && hints[i])
	}
	return l
}

// find returns the index of block's line, or -1.
func (s *refSet) find(block uint64) int {
	for k := range s.lines {
		if s.lines[k].block == block {
			return k
		}
	}
	return -1
}

// touch moves line k to the most recent position and returns it.
func (s *refSet) touch(k int) *refLine {
	ln := s.lines[k]
	ln.wrapped = false
	copy(s.lines[1:k+1], s.lines[:k])
	s.lines[0] = ln
	return &s.lines[0]
}

// lruVictim is LRU's own choice: the least recent line that did not
// wrap (a full set always holds one: the last cold fill's demotion saw
// no never-filled way).
func (s *refSet) lruVictim() int {
	for k := len(s.lines) - 1; k >= 0; k-- {
		if !s.lines[k].wrapped {
			return k
		}
	}
	panic("reference: every line of a full set wrapped")
}

// protectedOrder lists a full set's lines from best victim to worst for
// the protected choice: wrapped lines first, lowest way first, then the
// rest from least recent to most recent.
func (s *refSet) protectedOrder() []int {
	byWay := make([]int, len(s.lines))
	for w := range byWay {
		byWay[w] = -1
	}
	for k, ln := range s.lines {
		if ln.wrapped {
			byWay[ln.way] = k
		}
	}
	var order []int
	for _, k := range byWay {
		if k >= 0 {
			order = append(order, k)
		}
	}
	for k := len(s.lines) - 1; k >= 0; k-- {
		if !s.lines[k].wrapped {
			order = append(order, k)
		}
	}
	return order
}

// charge passes over a protected line once; its protection lapses when
// the budget runs out.
func (l *refLane) charge(ln *refLine) {
	if ln.skips--; ln.skips <= 0 {
		ln.protected = false
		l.stats.Expired++
	}
}

// evict removes the victim of a full set and returns its way.
func (l *refLane) evict(set *refSet) int {
	protected := 0
	for k := range set.lines {
		if set.lines[k].protected {
			protected++
		}
	}
	v := -1
	switch {
	case !l.full || protected == 0:
		v = set.lruVictim()
	case protected == l.ways:
		// Lockout: charge every line and evict LRU's own victim.
		l.stats.Lockouts++
		for k := range set.lines {
			l.charge(&set.lines[k])
		}
		v = set.lruVictim()
	default:
		// Exclusion: the best unprotected line goes; every protected line
		// ranked above it is passed over once.
		excluded := false
		for _, k := range set.protectedOrder() {
			if !set.lines[k].protected {
				v = k
				break
			}
			l.charge(&set.lines[k])
			excluded = true
		}
		if excluded {
			l.stats.Exclusions++
		}
	}
	way := set.lines[v].way
	set.lines = append(set.lines[:v], set.lines[v+1:]...)
	return way
}

// fill applies the protection rule to the line just filled at the most
// recent position of set.
func (l *refLane) fill(set *refSet, a *cache.AccessInfo, hinted bool) {
	l.seen++
	if hinted {
		l.hint++
	}
	if l.seen >= refGateWindow {
		l.halvings++
		l.seen /= 2
		l.hint /= 2
	}
	ln := &set.lines[0]
	if !hinted {
		if l.hint*refGateDenom >= l.seen {
			// Demotion: to the least recent position, which wraps while
			// the set still has a never-filled way.
			l.stats.Demotions++
			if len(set.lines) < l.ways {
				l.wraps++
				ln.wrapped = true
			} else {
				d := *ln
				copy(set.lines, set.lines[1:])
				set.lines[len(set.lines)-1] = d
			}
		}
		return
	}
	l.stats.ProtectedFills++
	l.stats.Promotions++ // the fill is already the most recent line
	if l.full {
		ln.protected, ln.skips, ln.fillCore = true, refSkipBudget, a.Core
	}
}

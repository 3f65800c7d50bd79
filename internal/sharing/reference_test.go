package sharing

import (
	"cmp"
	"fmt"
	"slices"

	"sharellc/internal/cache"
)

// The reference walk: one configuration replayed alone, access by
// access in stream order, through cache.Access and a struct-Residency
// tracker that fires the lane's hooks itself. It shares the Result
// counters and the block census with the engine but none of its
// batching or column tracking, and every differential test holds
// ReplayMulti's policy passes — hooked lanes included — to it.

// seqReplay is the reference walk of one configuration, whatever its
// policy, hooks or geometry, after the same block-ID resolution
// ReplayMulti performs.
func seqReplay(stream []cache.AccessInfo, c LLCConfig, opt Options) (*Result, error) {
	sets, err := cache.Geometry(c.Size, c.Ways)
	if err != nil {
		return nil, err
	}
	stream, numBlocks := ensureBlockIDs(stream, opt)
	l := &lane{cfg: c, sets: sets, inst: c.NewPolicy()}
	if err := runSeqLane(stream, numBlocks, l); err != nil {
		return nil, err
	}
	return l.result, nil
}

// runSeqLane replays lane l over the whole stream in stream order —
// Index validation, hook dispatch and the struct tracker — writing the
// finished Result to l.result.
func runSeqLane(stream []cache.AccessInfo, numBlocks int, l *lane) error {
	pol := l.inst
	var hint *hookHint
	if fh, ok := pol.(fillHinter); ok && l.cfg.Hooks.PredictShared != nil {
		hint = &hookHint{fillHinter: fh}
		pol = hint
	}
	llc, err := cache.NewSetAssoc(l.cfg.Size, l.cfg.Ways, pol)
	if err != nil {
		return err
	}
	st := &seqState{
		replayState: replayState{
			res:        newResult(l.inst.Name()),
			blockState: make([]uint8, numBlocks),
		},
		active: make([]uint32, numBlocks),
		lines:  make([]Residency, l.sets*l.cfg.Ways),
		hooks:  l.cfg.Hooks,
		hint:   hint,
	}
	if err := st.run(llc, stream); err != nil {
		return err
	}
	st.closeAlive()
	census(st.res, st.blockState)
	l.result = st.res
	return nil
}

// seqState is the reference tracker: the engine's counters and census
// plus one struct Residency per line and the lane's hooks.
type seqState struct {
	replayState
	// active maps BlockID → 1 + its line index while the block is
	// resident; 0 means not resident.
	active []uint32
	// lines shadows the cache's line array (sets*ways, row-major by
	// set): lines[set*ways+way] is the open residency of the block
	// cached there, open iff its EvictIndex is -1.
	lines []Residency
	hooks Hooks
	hint  *hookHint // the lane's policy when it takes the hook's hint; else nil
}

// fillHinter is a policy whose fill takes its sharing hint beside the
// access: core.Protector and the lanes that embed it.
type fillHinter interface {
	cache.Policy
	FillHinted(set, way int, a *cache.AccessInfo, shared bool)
}

// hookHint wraps a hooked lane's fillHinter: step stores the
// PredictShared verdict in shared, and Fill hands it to FillHinted.
type hookHint struct {
	fillHinter
	shared bool
}

// Fill implements cache.Policy.
func (h *hookHint) Fill(set, way int, a *cache.AccessInfo) { h.FillHinted(set, way, a, h.shared) }

// closeRes finalizes a residency at evictIndex (-1 = alive at stream end),
// folds it into the counters and fires OnResidencyEnd.
func (st *seqState) closeRes(r *Residency, evictIndex int64) {
	res := st.res
	r.EvictIndex = evictIndex
	deg := r.degree()
	shared := deg >= 2
	if shared {
		st.blockState[r.id] = blockShared
	} else if st.blockState[r.id] == blockUnseen {
		st.blockState[r.id] = blockPrivate
	}
	res.Residencies++
	res.DegreeResidencies[deg]++
	res.DegreeHits[deg] += r.Hits
	if shared {
		res.SharedResidencies++
		res.SharedHits += r.Hits
		if r.written {
			res.RWSharedResidencies++
			res.RWSharedHits += r.Hits
		} else {
			res.ROSharedResidencies++
			res.ROSharedHits += r.Hits
		}
	} else {
		res.PrivateHits += r.Hits
	}
	if st.hooks.OnResidencyEnd != nil {
		st.hooks.OnResidencyEnd(*r)
	}
}

// step advances the tracker by one access and reports whether it hit.
// The tracker decides hit or miss first, because PredictShared must
// answer before the victim choice; the access then goes through
// cache.Access, whose own tag lookup must agree. A hit bumps the
// residency; a miss closes the residency the fill evicted (checking that
// the cache's victim is the tracked one) and opens the new one.
func (st *seqState) step(llc *cache.SetAssoc, ways int, a *cache.AccessInfo) (bool, error) {
	id := a.BlockID
	tracked := st.active[id]
	if tracked == 0 && st.hooks.PredictShared != nil {
		pred := st.hooks.PredictShared(*a)
		if st.hint != nil {
			st.hint.shared = pred
		}
	}
	out := llc.Access(*a)
	li := out.Set*ways + out.Way
	if out.Hit != (tracked != 0) || (out.Hit && tracked != uint32(li+1)) {
		return false, fmt.Errorf("sharing: block %d: cache hit %v at line %d, tracker line %d", a.Block, out.Hit, li, int(tracked)-1)
	}
	if out.Hit {
		r := &st.lines[li]
		r.Hits++
		r.addCore(a.Core)
		if a.Write {
			r.written = true
		}
		return true, nil
	}
	if out.Evicted {
		victim := &st.lines[li]
		if victim.Block != out.Victim || st.active[victim.id] != uint32(li+1) {
			return false, fmt.Errorf("sharing: evicted block %d has no tracked residency", out.Victim)
		}
		st.active[victim.id] = 0
		st.closeRes(victim, int64(a.Index))
	}
	st.lines[li] = Residency{
		Block:      a.Block,
		FillIndex:  int64(a.Index),
		FillCore:   a.Core,
		FillPC:     a.PC,
		id:         id,
		written:    a.Write,
		EvictIndex: -1,
	}
	st.lines[li].addCore(a.Core)
	st.active[id] = uint32(li + 1)
	return false, nil
}

// run replays the whole stream through llc, validating the Index
// invariant.
func (st *seqState) run(llc *cache.SetAssoc, stream []cache.AccessInfo) error {
	ways := llc.Ways()
	var hits uint64
	for i := range stream {
		if int(stream[i].Index) != i {
			return fmt.Errorf("sharing: stream index %d at position %d; use cache.FilterStream ordering", stream[i].Index, i)
		}
		hit, err := st.step(llc, ways, &stream[i])
		if err != nil {
			return err
		}
		if hit {
			hits++
		}
	}
	st.flushCounts(uint64(len(stream)), hits)
	return nil
}

// closeAlive closes the residencies still open at stream end, in fill
// order (fill indices are unique, so the order is total).
func (st *seqState) closeAlive() {
	var alive []*Residency
	for i := range st.lines {
		if r := &st.lines[i]; r.EvictIndex == -1 {
			alive = append(alive, r)
		}
	}
	slices.SortFunc(alive, func(a, b *Residency) int { return cmp.Compare(a.FillIndex, b.FillIndex) })
	for _, r := range alive {
		st.closeRes(r, -1)
	}
}

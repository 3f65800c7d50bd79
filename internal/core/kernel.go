package core

import (
	"math/bits"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
)

// The protected lane and its LRU batch kernel.
//
// Every oracle and predictor-driven lane of the paper is a Lane: a
// Protector whose fill hints come from a laneHinter, replayed through
// cache.ReplayBatchCols. Over an LRU base the generic loop would pay three
// dynamic calls per access (Lane → Protector → LRU) and, on every
// protected miss, write and rescan a key per way. lruKernel is that loop
// specialized to an LRU base: touch, fulfilment, the protected victim
// choice, the hint-rate gate, demotion and promotion run inline on the
// LRU's stamps and the Protector's protection masks, and the laneHinter
// supplies only the hint and learns from the residencies. It performs
// exactly the state transitions of the generic loop over Lane's per-call
// methods, which stay as the reference (TestProtectedLRUKernelVsGeneric).

// laneHinter is what a protected lane adds to its Protector: where each
// fill's sharing hint comes from, and what the lane learns from the
// residencies the replay opens and ends. li is the line index
// (set*ways+way). Per miss a Lane calls LaneHint first, then chooses the
// victim, then LaneEvict (full sets only), then LaneFill. A laneHinter
// with per-line state also implements Attach(sets, ways int), which the
// Lane calls after the Protector's, and cache.Releaser.
type laneHinter interface {
	// LaneHit is told of every hit before the Protector handles it.
	LaneHit(li uint32, a *cache.AccessInfo)
	// LaneHint returns the sharing hint of the miss on a.
	LaneHint(a *cache.AccessInfo) bool
	// LaneEvict is told that the residency at li ends, after the victim
	// choice and before the new fill.
	LaneEvict(li uint32)
	// LaneFill is told that a's block now resides at li.
	LaneFill(li uint32, a *cache.AccessInfo)
}

// Lane is the policy of a protected lane: p's protection hinted by h. Its
// per-call methods, which the replay's generic loop calls, make h's calls
// in lruKernel's order; over an LRU base of at most 64 ways
// NewBatchKernel binds lruKernel instead.
type Lane struct {
	*Protector
	h laneHinter
	// hint is the current miss's; asked reports that Victim already
	// asked h for it.
	hint, asked bool
}

// NewLane returns the lane policy of p hinted by h. Both belong to this
// lane alone.
func NewLane(p *Protector, h laneHinter) *Lane { return &Lane{Protector: p, h: h} }

// Attach implements cache.Policy.
func (l *Lane) Attach(sets, ways int) {
	l.Protector.Attach(sets, ways)
	if a, ok := l.h.(interface{ Attach(sets, ways int) }); ok {
		a.Attach(sets, ways)
	}
}

// Release implements cache.Releaser: the hinter's state, then the
// Protector's, go back to the mem pool.
func (l *Lane) Release() {
	if r, ok := l.h.(cache.Releaser); ok {
		r.Release()
	}
	l.Protector.Release()
}

// Hit implements cache.Policy.
func (l *Lane) Hit(set, way int, a *cache.AccessInfo) {
	l.h.LaneHit(uint32(set*l.ways+way), a)
	l.Protector.Hit(set, way, a)
}

// Victim implements cache.Policy: hint the miss, choose the victim, then
// end the residency it held.
func (l *Lane) Victim(set int, a *cache.AccessInfo) int {
	l.hint, l.asked = l.h.LaneHint(a), true
	v := l.Protector.Victim(set, a)
	l.h.LaneEvict(uint32(set*l.ways + v))
	return v
}

// Fill implements cache.Policy: a fill into a set that was not full is
// hinted here.
func (l *Lane) Fill(set, way int, a *cache.AccessInfo) {
	if !l.asked {
		l.hint = l.h.LaneHint(a)
	}
	l.asked = false
	l.FillHinted(set, way, a, l.hint)
	l.h.LaneFill(uint32(set*l.ways+way), a)
}

// NewBatchKernel implements cache.batchPolicy.
func (l *Lane) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel { return l.lruKernel(c, l.h) }

// lruKernel returns the protected-LRU batch kernel of p driven by d, or
// nil — the generic loop — unless p's base is a policy.LRUPolicy and c
// has at most 64 ways (one protection word per set). Like any
// cache.batchPolicy kernel it is bound after Attach and serves c alone.
func (p *Protector) lruKernel(c *cache.SetAssoc, d laneHinter) cache.BatchKernel {
	lru, ok := p.base.(*policy.LRUPolicy)
	mask, ways := c.KernelGeom()
	if !ok || ways > 64 {
		return nil
	}
	valid := c.KernelValid()
	stamp, clockp := lru.KernelState()
	prot, lines := p.prot, p.lines
	full := p.opts.Strength >= Full
	return func(blk []uint64, id []uint32, accs []cache.AccessInfo, active, lineID, out []uint32) {
		clock := *clockp
		st := &p.stats
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				li--
				clock++
				stamp[li] = clock
				a := &accs[k]
				d.LaneHit(li, a)
				set := uint32(blk[k] & mask)
				if bit := uint64(1) << (li - set*uint32(ways)); prot[set]&bit != 0 {
					if ln := &lines[li]; a.Core != ln.fillCore {
						st.Fulfilled++
						if p.opts.ClearOnFulfil {
							prot[set] &^= bit
						} else {
							ln.skipsLeft = p.budget
						}
					}
				}
				out[k] = li | cache.BatchHit
				continue
			}
			set := int(blk[k] & mask)
			a := &accs[k]
			shared := d.LaneHint(a)
			var li, o uint32
			if int(valid[set]) == ways {
				li, o = uint32(set*ways+p.lruVictim(lru, set, a)), cache.BatchEvict
				d.LaneEvict(li)
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			clock++
			stamp[li] = clock

			// FillHinted over LRU: LRUPolicy is a Demoter and not a
			// Promoter, so promotion is a second touch (its Hit).
			p.fillsSeen++
			if shared {
				p.fillsHinted++
			}
			if p.fillsSeen >= gateWindow {
				p.fillsSeen /= 2
				p.fillsHinted /= 2
			}
			bit := uint64(1) << (li - uint32(set*ways))
			prot[set] &^= bit
			if !shared {
				if p.demoteActive() {
					lru.Demote(set, int(li)-set*ways)
					st.Demotions++
				}
			} else {
				st.ProtectedFills++
				clock++
				stamp[li] = clock
				st.Promotions++
				if full {
					prot[set] |= bit
					lines[li] = line{skipsLeft: p.budget, fillCore: a.Core}
				}
			}
			d.LaneFill(li, a)

			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
		*clockp = clock
	}
}

// lruVictim is Victim over an LRU base with at most 64 ways. With no way
// protected (always so under InsertOnly, which never protects), or every
// way (lockout), it is LRU's own choice: the least unsigned stamp.
// Otherwise it is the keyed choice over LRUPolicy's VictimKeys,
// -int64(stamp), scanned over the unprotected ways' mask. The two orders
// disagree on a stamp Demote wrapped (see cache.LRU.Attach), so each
// branch keeps its own.
func (p *Protector) lruVictim(lru *policy.LRUPolicy, set int, a *cache.AccessInfo) int {
	m := p.prot[set]
	if m == 0 {
		return lru.Victim(set, a)
	}
	all := ^uint64(0) >> (64 - p.ways)
	if m == all {
		p.stats.Lockouts++
		for w := 0; w < p.ways; w++ {
			p.charge(set, w)
		}
		return lru.Victim(set, a)
	}
	free := all &^ m
	v := bits.TrailingZeros64(free)
	best := -int64(lru.Stamp(set, v))
	for f := free & (free - 1); f != 0; f &= f - 1 {
		w := bits.TrailingZeros64(f)
		if k := -int64(lru.Stamp(set, w)); k > best {
			v, best = w, k
		}
	}
	excluded := false
	for ; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if k := -int64(lru.Stamp(set, w)); k > best || k == best && w < v {
			p.charge(set, w)
			excluded = true
		}
	}
	if excluded {
		p.stats.Exclusions++
	}
	return v
}

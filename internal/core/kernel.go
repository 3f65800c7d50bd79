package core

import (
	"math/bits"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
)

// The protected-LRU batch kernel.
//
// Every oracle and predictor-driven lane of the paper is a Protector over
// LRU replayed through cache.ReplayBatchCols. The generic loop pays three
// dynamic calls per access (lane wrapper → Protector → LRU) and, on every
// protected miss, writes and rescans a key per way. LRUKernel is that loop
// specialized to an LRU base: touch, fulfilment, the protected victim
// choice, the hint-rate gate, demotion and promotion run inline on the
// LRU's stamps and the Protector's protection masks, and the lane wrapper
// supplies only its hint through a LaneHinter. It performs exactly the
// state transitions of the generic loop over the wrapper's per-call
// methods, which stay as the reference (TestProtectedLRUKernelVsGeneric).

// LaneHinter is what a protected lane adds to its Protector: where each
// fill's sharing hint comes from, and what the lane learns from the
// residencies the replay opens and ends. li is the line index
// (set*ways+way). Per miss the kernel calls LaneHint first, then chooses
// the victim, then LaneEvict (full sets only), then LaneFill.
type LaneHinter interface {
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

// LRUKernel returns the protected-LRU batch kernel of p driven by d, or
// nil — the generic loop — unless p's base is a policy.LRUPolicy and c
// has at most 64 ways (one protection word per set). Like any
// cache.batchPolicy kernel it is bound after Attach and serves c alone.
func (p *Protector) LRUKernel(c *cache.SetAssoc, d LaneHinter) cache.BatchKernel {
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

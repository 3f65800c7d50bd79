package policy

// Monomorphic batch kernels (cache.batchPolicy) for the realistic
// policy catalogue.
//
// The generic batch probe of internal/cache pays three non-inlinable
// dynamic dispatches per access — Policy.Hit on the hit majority path,
// Victim and Fill on misses — inside the tightest loop of the repo.
// Every kernel below is that same loop specialized to one concrete
// policy type, selected once by NewSetAssoc's type assertion, so the
// policy-state update inlines into the chunk body and runs in the same
// pass that maintains the caller's active/lineID residency tables.
//
// Shared structure (the cache-side transitions are the generic loop's,
// verbatim, in the same order — TestBatchPolicyVsGeneric holds every
// kernel to byte-equal outcomes and final policy state):
//
//	hit:  load active[id] → update policy state at line li-1 → out word.
//	      The per-set state is flat by line index, so the hit path never
//	      recomputes the set from the block address at all.
//	miss: set from blk&mask → victim search (full set) or cold fill
//	      (way valid[set], KernelColdWay) → clear the victim's active
//	      entry → policy insertion state → residency tables → out word.
//	      No tag is stored: the residency tables are the contents.
//
// Policies whose state is one byte per way (the RRIP family's RRPVs,
// NRU's reference bytes) get a SWAR victim search when the
// associativity is a multiple of eight: eight ways are scanned per
// 64-bit word and RRIP aging increments eight RRPVs per add (byte
// values stay ≤ rripMax, so carries never cross byte lanes). The
// lowest matching byte of the zero-byte finder is always exact, which
// matches the scalar scan's lowest-way tie-break. Other geometries
// keep the scalar search inside the specialized loop.
//
// OPT stays on the generic path on purpose: it is the one catalogue
// policy that reads per-access annotations (NextUse) on every call,
// and as the offline yardstick it is not a target the harness needs to
// make fast. A wrapped policy (core.Protector) never reaches its base's
// kernel — the wrapper holds its base as an interface field, so it does
// not re-export the capability; the oracle and predictor-driven lanes
// over LRU bind core's protected-LRU kernel instead.

import (
	"encoding/binary"
	"math/bits"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
)

// SWAR byte-lane constants of the victim searches.
const (
	lowBytes  = 0x0101010101010101
	highBits  = 0x8080808080808080
	rripWide  = rripMax * lowBytes
	laneWidth = 8 // ways scanned per SWAR word
)

// zeroByte returns a mask whose lowest set 0x80 bit marks the lowest
// zero byte of w, or 0 when no byte is zero. Borrows propagate only
// upward, so bits below the first zero byte are never false positives.
func zeroByte(w uint64) uint64 { return (w - lowBytes) &^ w & highBits }

// rripVictim is the standard RRIP victim search — lowest way at
// rripMax, aging every RRPV in the set until one appears — over the
// flat RRPV bytes of one set, eight ways per word when wide.
//
//go:noinline
func rripVictim(rrpv []uint8, base, ways int, wide bool) int {
	set := rrpv[base : base+ways]
	if wide {
		for {
			for off := 0; off < len(set); off += laneWidth {
				if m := zeroByte(binary.LittleEndian.Uint64(set[off:]) ^ rripWide); m != 0 {
					return off + bits.TrailingZeros64(m)>>3
				}
			}
			for off := 0; off < len(set); off += laneWidth {
				binary.LittleEndian.PutUint64(set[off:], binary.LittleEndian.Uint64(set[off:])+lowBytes)
			}
		}
	}
	for {
		for w := 0; w < len(set); w++ {
			if set[w] == rripMax {
				return w
			}
		}
		for w := 0; w < len(set); w++ {
			set[w]++
		}
	}
}

// nruVictim is NRU's search — lowest way with a clear reference byte,
// else clear the whole set and take way 0 — eight ways per word when
// wide.
//
//go:noinline
func nruVictim(ref []uint8, base, ways int, wide bool) int {
	set := ref[base : base+ways]
	if wide {
		for off := 0; off < len(set); off += laneWidth {
			if m := zeroByte(binary.LittleEndian.Uint64(set[off:])); m != 0 {
				return off + bits.TrailingZeros64(m)>>3
			}
		}
		for off := 0; off < len(set); off += laneWidth {
			binary.LittleEndian.PutUint64(set[off:], 0)
		}
		return 0
	}
	for w := 0; w < len(set); w++ {
		if set[w] == 0 {
			return w
		}
	}
	for w := 0; w < len(set); w++ {
		set[w] = 0
	}
	return 0
}

// stampVictim is the min-stamp scan shared by the LRU-stack family
// (FIFO and the LIP/BIP/DIP core; cache.LRU carries its own copy on
// uint64 stamps).
//
//go:noinline
func stampVictim(stamp []int64, base, ways int) int {
	victim, min := 0, stamp[base]
	for w := 1; w < ways; w++ {
		if s := stamp[base+w]; s < min {
			victim, min = w, s
		}
	}
	return victim
}

// stampMin is insertAtLRU's scan half: the smallest stamp in the set.
//
//go:noinline
func stampMin(stamp []int64, base, ways int) int64 {
	min := stamp[base]
	for w := 1; w < ways; w++ {
		if s := stamp[base+w]; s < min {
			min = s
		}
	}
	return min
}

// NewBatchKernel implements cache.batchPolicy: FIFO's hit path is pure
// bookkeeping (hits change nothing), fills stamp the insertion clock.
func (p *fifo) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	mask, ways := c.KernelGeom()
	valid := c.KernelValid()
	stamp := p.stamp
	return func(blk []uint64, id []uint32, accs []cache.AccessInfo, active, lineID, out []uint32) {
		clock := p.clock
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				out[k] = (li - 1) | cache.BatchHit
				continue
			}
			set := int(blk[k] & mask)
			var li, o uint32
			if int(valid[set]) == ways {
				base := set * ways
				li, o = uint32(base+stampVictim(stamp, base, ways)), cache.BatchEvict
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			clock++
			stamp[li] = clock
			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
		p.clock = clock
	}
}

// NewBatchKernel implements cache.batchPolicy: Random keeps no state at
// all; the kernel draws the same victim sequence from the shared RNG
// the interface path would.
func (p *random) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	mask, ways := c.KernelGeom()
	valid := c.KernelValid()
	rnd := p.rnd
	return func(blk []uint64, id []uint32, accs []cache.AccessInfo, active, lineID, out []uint32) {
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				out[k] = (li - 1) | cache.BatchHit
				continue
			}
			set := int(blk[k] & mask)
			var li, o uint32
			if int(valid[set]) == ways {
				li, o = uint32(set*ways+rnd.Intn(ways)), cache.BatchEvict
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
	}
}

// NewBatchKernel implements cache.batchPolicy: NRU's reference byte at
// li-1 is the whole hit-path update; victims come from nruVictim.
func (p *nru) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	mask, ways := c.KernelGeom()
	valid := c.KernelValid()
	ref := p.ref
	wide := ways%laneWidth == 0
	return func(blk []uint64, id []uint32, accs []cache.AccessInfo, active, lineID, out []uint32) {
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				ref[li-1] = 1
				out[k] = (li - 1) | cache.BatchHit
				continue
			}
			set := int(blk[k] & mask)
			var li, o uint32
			if int(valid[set]) == ways {
				base := set * ways
				li, o = uint32(base+nruVictim(ref, base, ways, wide)), cache.BatchEvict
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			ref[li] = 1
			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
	}
}

// NewBatchKernel implements cache.batchPolicy: a touch becomes two
// table lookups instead of a tree walk. Which nodes a way's path
// clears and which it sets depends only on the way, so the kernel
// precomputes one clear mask and one set mask per way and a touch is
// tree[set] = tree[set]&^clear[way] | set[way] — branch-free where the
// interface path walks `levels` conditional node updates per touch.
// PLRU's power-of-two associativity means set and way fall out of the
// line index by shifting — the hit path never reads the block column.
func (p *plru) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	mask, ways := c.KernelGeom()
	valid := c.KernelValid()
	tree := p.tree
	levels := p.levels
	wayMask := uint32(ways - 1)
	clearM := make([]uint64, ways)
	setM := make([]uint64, ways)
	for w := 0; w < ways; w++ {
		node := 0
		for level := levels - 1; level >= 0; level-- {
			if w>>level&1 == 1 {
				clearM[w] |= 1 << node // point the node left, away from w
				node = 2*node + 2
			} else {
				setM[w] |= 1 << node
				node = 2*node + 1
			}
		}
	}
	return func(blk []uint64, id []uint32, accs []cache.AccessInfo, active, lineID, out []uint32) {
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				idx := li - 1
				set := idx >> levels
				way := idx & wayMask
				tree[set] = tree[set]&^clearM[way] | setM[way]
				out[k] = idx | cache.BatchHit
				continue
			}
			set := int(blk[k] & mask)
			var li, o uint32
			if int(valid[set]) == ways {
				t := tree[set]
				node, way := 0, uint32(0)
				for level := 0; level < levels; level++ {
					if t>>node&1 == 1 {
						way = way<<1 | 1
						node = 2*node + 2
					} else {
						way <<= 1
						node = 2*node + 1
					}
				}
				li, o = uint32(set*ways)+way, cache.BatchEvict
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			way := li & wayMask
			tree[li>>levels] = tree[li>>levels]&^clearM[way] | setM[way]
			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
	}
}

// Insertion modes of the shared LRU-stack (LIP/BIP/DIP) and RRIP
// (SRRIP/BRRIP/DRRIP) kernels. The mode is a captured constant, so the
// per-fill switch predicts perfectly; sharing one loop per family keeps
// the kernel bodies from tripling.
const (
	insertStatic = iota // LIP at-LRU / SRRIP at long
	insertCoin          // BIP / BRRIP: MRU-or-long with probability epsilon
	insertDuel          // DIP / DRRIP: set-dueling selector picks per fill
)

// lipKernel is the monomorphic loop of the LIP/BIP/DIP family: LRU
// stamps flat by line index, hits touch MRU, fills insert per mode.
func lipKernel(p *lipCore, c *cache.SetAssoc, mode int, rnd *rng.Source, d *duel) cache.BatchKernel {
	mask, ways := c.KernelGeom()
	valid := c.KernelValid()
	stamp := p.stamp
	return func(blk []uint64, id []uint32, accs []cache.AccessInfo, active, lineID, out []uint32) {
		clock := p.clock
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				clock++
				stamp[li-1] = clock
				out[k] = (li - 1) | cache.BatchHit
				continue
			}
			set := int(blk[k] & mask)
			base := set * ways
			var li, o uint32
			if int(valid[set]) == ways {
				li, o = uint32(base+stampVictim(stamp, base, ways)), cache.BatchEvict
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			atMRU := false
			switch mode {
			case insertCoin:
				atMRU = rnd.Bool(bipEpsilon)
			case insertDuel:
				d.observeMiss(set)
				atMRU = d.useA(set) || rnd.Bool(bipEpsilon)
			}
			if atMRU {
				clock++
				stamp[li] = clock
			} else {
				stamp[li] = stampMin(stamp, base, ways) - 1
			}
			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
		p.clock = clock
	}
}

// NewBatchKernel implements cache.batchPolicy for LIP.
func (p *lip) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	return lipKernel(&p.lipCore, c, insertStatic, nil, nil)
}

// NewBatchKernel implements cache.batchPolicy for BIP.
func (p *bip) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	return lipKernel(&p.lipCore, c, insertCoin, p.rnd, nil)
}

// NewBatchKernel implements cache.batchPolicy for DIP.
func (p *dip) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	return lipKernel(&p.lipCore, c, insertDuel, p.rnd, &p.duel)
}

// rripKernel is the monomorphic loop of the SRRIP/BRRIP/DRRIP family:
// flat RRPV bytes, hits promote to 0, fills insert at long or distant
// re-reference per mode, victims from the (SWAR when possible) RRIP
// search.
func rripKernel(p *rripCore, c *cache.SetAssoc, mode int, rnd *rng.Source, d *duel) cache.BatchKernel {
	mask, ways := c.KernelGeom()
	valid := c.KernelValid()
	rrpv := p.rrpv
	wide := ways%laneWidth == 0
	return func(blk []uint64, id []uint32, accs []cache.AccessInfo, active, lineID, out []uint32) {
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				rrpv[li-1] = 0
				out[k] = (li - 1) | cache.BatchHit
				continue
			}
			set := int(blk[k] & mask)
			var li, o uint32
			if int(valid[set]) == ways {
				base := set * ways
				li, o = uint32(base+rripVictim(rrpv, base, ways, wide)), cache.BatchEvict
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			long := true
			switch mode {
			case insertCoin:
				long = rnd.Bool(brripEpsilon)
			case insertDuel:
				d.observeMiss(set)
				long = d.useA(set) || rnd.Bool(brripEpsilon)
			}
			if long {
				rrpv[li] = rripMax - 1
			} else {
				rrpv[li] = rripMax
			}
			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
	}
}

// NewBatchKernel implements cache.batchPolicy for SRRIP.
func (p *srrip) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	return rripKernel(&p.rripCore, c, insertStatic, nil, nil)
}

// NewBatchKernel implements cache.batchPolicy for BRRIP.
func (p *brrip) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	return rripKernel(&p.rripCore, c, insertCoin, p.rnd, nil)
}

// NewBatchKernel implements cache.batchPolicy for DRRIP.
func (p *drrip) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	return rripKernel(&p.rripCore, c, insertDuel, p.rnd, &p.duel)
}

// NewBatchKernel implements cache.batchPolicy for SHiP: the RRIP loop
// plus first-reuse SHCT training on hits, dead-on-eviction training in
// the victim search, and the PC-signature insertion on fills (the one
// record field this kernel reads).
func (p *ship) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	mask, ways := c.KernelGeom()
	valid := c.KernelValid()
	rrpv, shct, lineSig, lineUsed := p.rrpv, p.shct, p.lineSig, p.lineUsed
	wide := ways%laneWidth == 0
	return func(blk []uint64, id []uint32, accs []cache.AccessInfo, active, lineID, out []uint32) {
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				idx := li - 1
				rrpv[idx] = 0
				if !lineUsed[idx] {
					lineUsed[idx] = true
					if cnt := shct[lineSig[idx]]; cnt < shipCounterMax {
						shct[lineSig[idx]] = cnt + 1
					}
				}
				out[k] = idx | cache.BatchHit
				continue
			}
			set := int(blk[k] & mask)
			var li, o uint32
			if int(valid[set]) == ways {
				base := set * ways
				w := rripVictim(rrpv, base, ways, wide)
				li, o = uint32(base+w), cache.BatchEvict
				if !lineUsed[li] {
					if cnt := shct[lineSig[li]]; cnt > 0 {
						shct[lineSig[li]] = cnt - 1
					}
				}
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			sig := Signature(accs[k].PC)
			lineSig[li] = sig
			lineUsed[li] = false
			if shct[sig] == 0 {
				rrpv[li] = rripMax
			} else {
				rrpv[li] = rripMax - 1
			}
			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
	}
}

// NewBatchKernel implements cache.batchPolicy for SHiP-S, overriding
// the kernel SHiPS would otherwise inherit from the embedded SHiP: the
// sharing-aware variant trains a second SHCT step on cross-core first
// reuse and promotes confident sharing sites to RRPV 0 on fill.
func (p *shipS) NewBatchKernel(c *cache.SetAssoc) cache.BatchKernel {
	mask, ways := c.KernelGeom()
	valid := c.KernelValid()
	rrpv, shct, lineSig, lineUsed, lineCore := p.rrpv, p.shct, p.lineSig, p.lineUsed, p.lineCore
	wide := ways%laneWidth == 0
	return func(blk []uint64, id []uint32, accs []cache.AccessInfo, active, lineID, out []uint32) {
		for k := range blk {
			if li := active[id[k]]; li != 0 {
				idx := li - 1
				firstReuse := !lineUsed[idx]
				rrpv[idx] = 0
				if firstReuse {
					lineUsed[idx] = true
					if cnt := shct[lineSig[idx]]; cnt < shipCounterMax {
						shct[lineSig[idx]] = cnt + 1
					}
					if accs[k].Core != lineCore[idx] {
						if cnt := shct[lineSig[idx]]; cnt < shipCounterMax {
							shct[lineSig[idx]] = cnt + 1
						}
					}
				}
				out[k] = idx | cache.BatchHit
				continue
			}
			set := int(blk[k] & mask)
			var li, o uint32
			if int(valid[set]) == ways {
				base := set * ways
				w := rripVictim(rrpv, base, ways, wide)
				li, o = uint32(base+w), cache.BatchEvict
				if !lineUsed[li] {
					if cnt := shct[lineSig[li]]; cnt > 0 {
						shct[lineSig[li]] = cnt - 1
					}
				}
				active[lineID[li]] = 0
			} else {
				li = c.KernelColdWay(set)
			}
			sig := Signature(accs[k].PC)
			lineSig[li] = sig
			lineUsed[li] = false
			if shct[sig] == 0 {
				rrpv[li] = rripMax
			} else {
				rrpv[li] = rripMax - 1
			}
			lineCore[li] = accs[k].Core
			if shct[sig] >= shipCounterMax-1 {
				rrpv[li] = 0
			}
			lineID[li] = id[k]
			active[id[k]] = li + 1
			out[k] = li | o
		}
	}
}

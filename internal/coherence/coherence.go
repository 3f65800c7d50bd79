// Package coherence models a directory-based MESI protocol over the
// private caches of the CMP. The paper's closing conclusion is that
// fill-time sharing prediction "will require other architectural ...
// features that have strong correlations with active sharing phases of
// the LLC blocks" — and coherence events (downgrades, invalidations,
// cache-to-cache transfers) are exactly such features: they are emitted
// by the same hardware that would host the predictor and they track
// *active* sharing rather than stale address history.
//
// The Directory consumes the load/store event stream and keeps one
// sharer set per block, as the directory of the CMP would, and nothing
// else: a block's MESI state is its sharer count. No sharer is Invalid.
// One sharer is Exclusive or Modified, which no counted event tells
// apart (the owner's store is silent in both). Two or more sharers is
// Shared, and no transition leaves a Shared block with one sharer: a
// remote load adds the second, and a store collapses the set to the
// writer, which then holds the block Modified. The Directory exposes
// the aggregate statistics (the C1 characterization, counted during the
// stream build) and, per access, whether it was a cross-core event (the
// coherence-assisted predictor in internal/predictor).
package coherence

import (
	"fmt"
	"math/bits"

	"sharellc/internal/mem"
	"sharellc/internal/trace"
)

// MaxCores is the core ceiling of the directory's sharer sets, the
// ceiling of cache.Config and workloads.Model.
const MaxCores = 128

// Stats aggregates protocol traffic.
type Stats struct {
	Loads  uint64
	Stores uint64

	// Invalidations counts remote copies killed by stores.
	Invalidations uint64
	// Downgrades counts M/E → S transitions caused by remote loads.
	Downgrades uint64
	// C2CTransfers counts loads and stores serviced by another core's
	// M or E copy instead of the LLC/memory.
	C2CTransfers uint64
	// UpgradeMisses counts stores by a core that already held the block
	// in Shared state (permission misses, the signature of read-write
	// sharing).
	UpgradeMisses uint64
	// ColdFills counts first-touch installs of a block.
	ColdFills uint64
}

// Directory is the MESI directory. It is not safe for concurrent use.
//
// Sharer sets live in one flat bit array indexed by a dense block id in
// [0, blocks): the caller numbers its blocks (a stream's BlockID, or
// workloads.Model.BlockIndex over a raw trace), so a reference costs one
// slice index and no hashing. A set is 1<<shift bits, the power of two
// at or above the core count and at least 8: a byte per block for an
// 8-core workload, so a full-size workload's sets stay in the host's L2
// cache. Core c of block id is bit id<<shift+c; a set never straddles a
// word, except that a 128-core set is two whole words.
type Directory struct {
	sharers []uint64 // the sets; from the mem pool
	shift   uint
	mask    uint64 // a set narrower than a word, at bit 0 (0 for 128 cores)
	stats   Stats
}

// NewDirectory returns an empty directory over block ids [0, blocks)
// for cores 0..cores-1; cores must lie in [1, MaxCores].
func NewDirectory(blocks, cores int) *Directory {
	if cores < 1 || cores > MaxCores {
		panic(fmt.Sprintf("coherence: %d cores outside [1,%d]", cores, MaxCores))
	}
	shift := uint(3)
	for 1<<shift < cores {
		shift++
	}
	d := &Directory{sharers: mem.Grab[uint64]((blocks<<shift + 63) / 64), shift: shift}
	if shift <= 6 {
		d.mask = ^uint64(0) >> (64 - 1<<shift)
	}
	return d
}

// Release hands the sharer sets back to the mem pool; the directory
// must not be used afterwards. Stats stays readable.
func (d *Directory) Release() {
	mem.Release(d.sharers)
	d.sharers = nil
}

// Stats returns the aggregate protocol statistics.
func (d *Directory) Stats() Stats { return d.stats }

// Sharers reports how many private caches hold block id.
func (d *Directory) Sharers(id uint32) int {
	pos := uint(id) << d.shift
	if d.mask == 0 {
		return bits.OnesCount64(d.sharers[pos>>6]) + bits.OnesCount64(d.sharers[pos>>6+1])
	}
	return bits.OnesCount64(d.sharers[pos>>6] >> (pos & 63) & d.mask)
}

// Load processes a read of block id by core and reports whether it was
// a cross-core event: a downgrade of a remote owner, or a new sharer of
// a Shared block.
func (d *Directory) Load(core uint8, id uint32) bool {
	d.stats.Loads++
	return d.access(core, id, false)
}

// Store processes a write of block id by core and reports whether it
// was a cross-core event: an invalidation of a remote owner, or of a
// Shared block's other copies.
func (d *Directory) Store(core uint8, id uint32) bool {
	d.stats.Stores++
	return d.access(core, id, true)
}

// Observe processes a batch of references in order: refs[i] is a load
// or store of block ids[i]. It is Load and Store over the batch, with
// the silent cases — a load by a sharer, a store by the only one, most
// of a raw trace — taken in the loop, which branches on nothing else.
func (d *Directory) Observe(refs []trace.Access, ids []uint32) {
	ids = ids[:len(refs)]
	var stores uint64
	for i := range refs {
		a, id := &refs[i], ids[i]
		var write uint64 // a.Write as a number
		if a.Write {
			write = 1
		}
		stores += write
		if d.mask == 0 {
			d.access(a.Core, id, a.Write)
			continue
		}
		pos := uint(id) << d.shift
		w, at := &d.sharers[pos>>6], pos&63
		set, bit := *w>>at&d.mask, uint64(1)<<a.Core
		// Silent: the core's bit, for a load, or the whole set, for a
		// store, is the core alone.
		if set&(bit|-write&d.mask) == bit {
			continue
		}
		set, _ = d.apply(set, bit, bits.OnesCount64(set), a.Write)
		*w = *w&^(d.mask<<at) | set<<at
	}
	d.stats.Stores += stores
	d.stats.Loads += uint64(len(refs)) - stores
}

// access applies a load or store of block id by core to its set.
func (d *Directory) access(core uint8, id uint32, write bool) bool {
	pos := uint(id) << d.shift
	if d.mask == 0 {
		// A 128-core set: the core's word, and the other one, which a
		// store empties.
		w, other := &d.sharers[pos>>6+uint(core>>6)], &d.sharers[pos>>6+uint(^core>>6&1)]
		set, event := d.apply(*w, 1<<(core&63), bits.OnesCount64(*w)+bits.OnesCount64(*other), write)
		*w = set
		if write {
			*other = 0
		}
		return event
	}
	w, at := &d.sharers[pos>>6], pos&63
	set := *w >> at & d.mask
	set, event := d.apply(set, 1<<core, bits.OnesCount64(set), write)
	*w = *w&^(d.mask<<at) | set<<at
	return event
}

// apply is the protocol: a load or store by the core whose bit is bit,
// on a set (or, for 128 cores, the word of it holding bit) with n
// sharers in all. It counts the access's events and returns what the set
// holds afterwards (a store leaves the writer alone) and whether the
// access was a cross-core event. The state is n: 0 Invalid, 1 Exclusive
// or Modified, 2 or more Shared.
func (d *Directory) apply(set, bit uint64, n int, write bool) (uint64, bool) {
	own := set&bit != 0
	if !write {
		switch {
		case own:
			return set, false // a hit in the core's own copy
		case n == 0:
			d.stats.ColdFills++
			return bit, false
		case n == 1:
			// Remote load: the owner downgrades, data forwarded
			// cache-to-cache.
			d.stats.Downgrades++
			d.stats.C2CTransfers++
		}
		return set | bit, true
	}
	switch {
	case n == 0:
		d.stats.ColdFills++
		return bit, false
	case n == 1 && own:
		return set, false // the owner's silent E → M
	case n == 1:
		// Remote store: invalidate the owner, transfer ownership.
		d.stats.Invalidations++
		d.stats.C2CTransfers++
	case own:
		// An upgrade (permission) miss kills the other copies.
		d.stats.UpgradeMisses++
		d.stats.Invalidations += uint64(n - 1)
	default:
		d.stats.Invalidations += uint64(n)
	}
	return bit, true
}

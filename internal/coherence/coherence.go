// Package coherence models a directory-based MESI protocol over the
// private caches of the CMP. The paper's closing conclusion is that
// fill-time sharing prediction "will require other architectural ...
// features that have strong correlations with active sharing phases of
// the LLC blocks" — and coherence events (downgrades, invalidations,
// cache-to-cache transfers) are exactly such features: they are emitted
// by the same hardware that would host the predictor and they track
// *active* sharing rather than stale address history.
//
// The Directory consumes the load/store event stream, maintains per-block
// MESI state and sharer sets as the directory of an 8-core CMP would, and
// exposes both aggregate statistics (the C1 characterization) and
// per-block queries (the coherence-assisted predictor in
// internal/predictor).
package coherence

import (
	"fmt"
	"math/bits"
)

// State is the directory-visible MESI state of a block.
type State uint8

const (
	// Invalid: no private cache holds the block.
	Invalid State = iota
	// Shared: one or more private caches hold read-only copies.
	Shared
	// Exclusive: exactly one private cache holds a clean copy.
	Exclusive
	// Modified: exactly one private cache holds a dirty copy.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

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

// entry is one block's directory record.
type entry struct {
	state   State
	sharers [2]uint64 // bitmask of cores holding the block
	// lastEvent is the event counter value of the block's most recent
	// cross-core interaction (downgrade, invalidation, upgrade, C2C).
	lastEvent uint64
}

func (e *entry) addSharer(core uint8)      { e.sharers[core>>6] |= 1 << (core & 63) }
func (e *entry) hasSharer(core uint8) bool { return e.sharers[core>>6]>>(core&63)&1 == 1 }
func (e *entry) sharerCount() int {
	return bits.OnesCount64(e.sharers[0]) + bits.OnesCount64(e.sharers[1])
}

// Directory is the MESI directory. It is not safe for concurrent use.
//
// Entries live in one flat slice indexed by a dense block id in
// [0, blocks): the caller numbers its blocks (a stream's BlockID, or
// workloads.Model.BlockIndex over a raw trace), so a reference costs one
// slice index and no hashing.
type Directory struct {
	entries []entry
	stats   Stats
	clock   uint64 // event counter, advanced per Load/Store
}

// NewDirectory returns an empty directory over block ids [0, blocks).
func NewDirectory(blocks int) *Directory {
	return &Directory{entries: make([]entry, blocks)}
}

// Stats returns the aggregate protocol statistics.
func (d *Directory) Stats() Stats { return d.stats }

// Clock returns the number of events processed.
func (d *Directory) Clock() uint64 { return d.clock }

// StateOf reports block id's current state and sharer count.
func (d *Directory) StateOf(id uint32) (State, int) {
	e := &d.entries[id]
	return e.state, e.sharerCount()
}

// LastSharingEvent returns the event-clock value of block id's most
// recent cross-core interaction and whether one has ever occurred.
func (d *Directory) LastSharingEvent(id uint32) (uint64, bool) {
	e := d.entries[id].lastEvent
	return e, e != 0
}

// Load processes a read of block id by core.
func (d *Directory) Load(core uint8, id uint32) {
	d.clock++
	d.stats.Loads++
	e := &d.entries[id]
	switch e.state {
	case Invalid:
		d.stats.ColdFills++
		e.state = Exclusive
		e.addSharer(core)
	case Shared:
		if !e.hasSharer(core) {
			e.addSharer(core)
			e.lastEvent = d.clock
		}
	case Exclusive, Modified:
		if e.hasSharer(core) {
			return // silent hit in the owner
		}
		// Remote load: owner downgrades, data forwarded cache-to-cache.
		d.stats.Downgrades++
		d.stats.C2CTransfers++
		e.state = Shared
		e.addSharer(core)
		e.lastEvent = d.clock
	}
}

// Store processes a write of block id by core.
func (d *Directory) Store(core uint8, id uint32) {
	d.clock++
	d.stats.Stores++
	e := &d.entries[id]
	switch e.state {
	case Invalid:
		d.stats.ColdFills++
	case Modified, Exclusive:
		if e.hasSharer(core) {
			e.state = Modified
			return
		}
		// Remote store: invalidate the owner, transfer ownership.
		d.stats.Invalidations++
		d.stats.C2CTransfers++
		e.sharers = [2]uint64{}
		e.lastEvent = d.clock
	case Shared:
		// Kill all other copies; an existing copy of our own is an
		// upgrade (permission) miss.
		n := e.sharerCount()
		if e.hasSharer(core) {
			d.stats.UpgradeMisses++
			d.stats.Invalidations += uint64(n - 1)
			if n > 1 {
				e.lastEvent = d.clock
			}
		} else {
			d.stats.Invalidations += uint64(n)
			e.lastEvent = d.clock
		}
		e.sharers = [2]uint64{}
	}
	e.state = Modified
	e.addSharer(core)
}

// CheckInvariants validates the MESI invariants over every entry and
// returns the first violation, for property tests.
func (d *Directory) CheckInvariants() error {
	for b := range d.entries {
		e := &d.entries[b]
		n := e.sharerCount()
		switch e.state {
		case Invalid:
			if n != 0 {
				return fmt.Errorf("coherence: block id %d Invalid with %d sharers", b, n)
			}
		case Shared:
			if n < 1 {
				return fmt.Errorf("coherence: block id %d Shared with no sharers", b)
			}
		case Exclusive, Modified:
			if n != 1 {
				return fmt.Errorf("coherence: block id %d %v with %d sharers", b, e.state, n)
			}
		}
	}
	return nil
}

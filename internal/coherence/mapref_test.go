package coherence

import (
	"fmt"
	"strings"
	"testing"

	"sharellc/internal/rng"
)

// mapDirectory is the Directory as it was with a Go map for an index: the
// same slab, the same protocol code, verbatim. It is the reference the
// flat open-addressed index is compared against.
type mapDirectory struct {
	index map[uint64]uint32 // block → slab position + 1
	slab  []entry
	stats Stats
	clock uint64 // event counter, advanced per Load/Store
}

// newMapDirectory returns an empty directory.
func newMapDirectory() *mapDirectory {
	return &mapDirectory{index: make(map[uint64]uint32, 1<<16)}
}

// lookup returns the entry tracking block, or nil if none. The pointer is
// valid only until the next ensure (a slab append may move entries).
func (d *mapDirectory) lookup(block uint64) *entry {
	if i := d.index[block]; i != 0 {
		return &d.slab[i-1]
	}
	return nil
}

// ensure returns the entry tracking block, appending a fresh Invalid one
// to the slab if the block is untracked.
func (d *mapDirectory) ensure(block uint64) *entry {
	if i := d.index[block]; i != 0 {
		return &d.slab[i-1]
	}
	d.slab = append(d.slab, entry{})
	d.index[block] = uint32(len(d.slab))
	return &d.slab[len(d.slab)-1]
}

// Stats returns the aggregate protocol statistics.
func (d *mapDirectory) Stats() Stats { return d.stats }

// Clock returns the number of events processed.
func (d *mapDirectory) Clock() uint64 { return d.clock }

// StateOf reports a block's current state and sharer count.
func (d *mapDirectory) StateOf(block uint64) (State, int) {
	e := d.lookup(block)
	if e == nil {
		return Invalid, 0
	}
	return e.state, e.sharerCount()
}

// LastSharingEvent returns the event-clock value of the block's most
// recent cross-core interaction and whether one has ever occurred.
func (d *mapDirectory) LastSharingEvent(block uint64) (uint64, bool) {
	e := d.lookup(block)
	if e == nil || e.lastEvent == 0 {
		return 0, false
	}
	return e.lastEvent, true
}

// Load processes a read of block by core.
func (d *mapDirectory) Load(core uint8, block uint64) {
	d.clock++
	d.stats.Loads++
	e := d.ensure(block)
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

// Store processes a write of block by core.
func (d *mapDirectory) Store(core uint8, block uint64) {
	d.clock++
	d.stats.Stores++
	e := d.ensure(block)
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
func (d *mapDirectory) CheckInvariants() error {
	for b, i := range d.index {
		e := &d.slab[i-1]
		n := e.sharerCount()
		switch e.state {
		case Invalid:
			if n != 0 {
				return fmt.Errorf("coherence: block %d Invalid with %d sharers", b, n)
			}
		case Shared:
			if n < 1 {
				return fmt.Errorf("coherence: block %d Shared with no sharers", b)
			}
		case Exclusive, Modified:
			if n != 1 {
				return fmt.Errorf("coherence: block %d %v with %d sharers", b, e.state, n)
			}
		}
	}
	return nil
}

// TestFlatIndexMatchesMapDirectory runs the same event stream through the
// Directory and the map-backed reference and compares everything the
// package exposes. The block pool is built to stress the index: block 0,
// the largest block number, runs of consecutive blocks, blocks that are
// equal modulo every table size the run passes through (multiples of
// 2^20), and blocks whose Fibonacci hashes share their top 12 bits and so
// collide in the initial table and stay neighbours after each growth.
func TestFlatIndexMatchesMapDirectory(t *testing.T) {
	pool := []uint64{0, 1<<64 - 1, 1 << 63}
	for i := uint64(0); i < 3000; i++ {
		pool = append(pool, 1000+i, i<<20, i<<44|7)
	}
	for b := uint64(1); len(pool) < 12000; b++ {
		if b*0x9E3779B97F4A7C15>>52 == 0x123 {
			pool = append(pool, b)
		}
	}

	d, ref := NewDirectory(), newMapDirectory()
	slots := len(d.index)
	growths := 0
	compare := func(step int, b uint64) {
		t.Helper()
		s1, n1 := d.StateOf(b)
		s2, n2 := ref.StateOf(b)
		e1, ok1 := d.LastSharingEvent(b)
		e2, ok2 := ref.LastSharingEvent(b)
		if s1 != s2 || n1 != n2 || e1 != e2 || ok1 != ok2 {
			t.Fatalf("step %d block %#x: state %v/%d event %d/%v, reference %v/%d %d/%v",
				step, b, s1, n1, e1, ok1, s2, n2, e2, ok2)
		}
	}
	rnd := rng.New(21)
	for step := 0; step < 400000; step++ {
		// The reachable part of the pool widens over the run, so that the
		// table grows while earlier blocks are still being revisited.
		b := pool[rnd.Intn(1+step*len(pool)/400000)]
		core := uint8(rnd.Intn(128))
		switch rnd.Intn(8) {
		case 1, 2, 3:
			d.Store(core, b)
			ref.Store(core, b)
		default:
			d.Load(core, b)
			ref.Load(core, b)
		}
		compare(step, b)
		compare(step, pool[rnd.Intn(len(pool))]) // mostly untracked blocks early on
		if len(d.index) != slots {
			slots = len(d.index)
			growths++
			for _, b := range pool {
				compare(step, b)
			}
		}
		if 2*len(d.slab) > len(d.index) {
			t.Fatalf("step %d: %d entries in %d slots, over half full", step, len(d.slab), len(d.index))
		}
	}
	if growths < 3 {
		t.Fatalf("the index grew %d times, want at least 3", growths)
	}
	for _, b := range pool {
		compare(-1, b)
	}
	if d.Stats() != ref.Stats() || d.Clock() != ref.Clock() {
		t.Errorf("stats %+v clock %d, reference %+v clock %d", d.Stats(), d.Clock(), ref.Stats(), ref.Clock())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Error(err)
	}

	// CheckInvariants must reach every entry through the flat index,
	// wherever probing put it: corrupt each in turn and expect a report
	// that names its block.
	checked := 0
	for i, b := range pool {
		e := d.lookup(b)
		if i%31 != 0 || e == nil {
			continue
		}
		checked++
		saved := *e
		*e = entry{state: Exclusive}
		err := d.CheckInvariants()
		if want := fmt.Sprintf("block %d ", b); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("corrupted block %#x: CheckInvariants = %v", b, err)
		}
		*e = saved
	}
	if checked < 100 {
		t.Errorf("only %d entries were corrupted and checked", checked)
	}
}

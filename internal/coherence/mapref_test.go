package coherence

import (
	"fmt"
	"strings"
	"testing"

	"sharellc/internal/rng"
)

// mapDirectory is the Directory as it was when it numbered blocks itself,
// through a Go map from raw block number to a slab position: the same
// protocol code, verbatim. It is the reference the dense, caller-numbered
// Directory is compared against.
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

// TestDirectoryMatchesMapDirectory runs the same event stream through the
// Directory, keyed by a dense id per block, and the map-backed reference,
// keyed by the raw block number, and compares everything the package
// exposes after every step. The ids are a scrambled numbering of a sparse
// block pool (block 0 and the largest block number included), so an entry
// reached through the wrong id shows up as a state mismatch.
func TestDirectoryMatchesMapDirectory(t *testing.T) {
	pool := []uint64{0, 1<<64 - 1, 1 << 63}
	for i := uint64(1); len(pool) < 6000; i++ {
		pool = append(pool, 1000+i, i<<20, i<<44|7)
	}
	ids := map[uint64]uint32{}
	perm := rng.New(5)
	for i, j := range permutation(perm, len(pool)) {
		ids[pool[i]] = uint32(j)
	}

	d, ref := NewDirectory(len(pool)), newMapDirectory()
	compare := func(step int, b uint64) {
		t.Helper()
		s1, n1 := d.StateOf(ids[b])
		s2, n2 := ref.StateOf(b)
		e1, ok1 := d.LastSharingEvent(ids[b])
		e2, ok2 := ref.LastSharingEvent(b)
		if s1 != s2 || n1 != n2 || e1 != e2 || ok1 != ok2 {
			t.Fatalf("step %d block %#x (id %d): state %v/%d event %d/%v, reference %v/%d %d/%v",
				step, b, ids[b], s1, n1, e1, ok1, s2, n2, e2, ok2)
		}
		if d.Stats() != ref.Stats() || d.Clock() != ref.Clock() {
			t.Fatalf("step %d: stats %+v clock %d, reference %+v clock %d", step, d.Stats(), d.Clock(), ref.Stats(), ref.Clock())
		}
	}
	rnd := rng.New(21)
	for step := 0; step < 200000; step++ {
		// The reachable part of the pool widens over the run, so that
		// fresh blocks keep arriving while earlier ones are revisited.
		b := pool[rnd.Intn(1+step*len(pool)/200000)]
		core := uint8(rnd.Intn(128))
		switch rnd.Intn(8) {
		case 1, 2, 3:
			d.Store(core, ids[b])
			ref.Store(core, b)
		default:
			d.Load(core, ids[b])
			ref.Load(core, b)
		}
		compare(step, b)
		compare(step, pool[rnd.Intn(len(pool))]) // mostly untracked blocks early on
	}
	for _, b := range pool {
		compare(-1, b)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Error(err)
	}

	// CheckInvariants must reach every entry: corrupt each in turn, by
	// id, and expect a report that names that id.
	checked := 0
	for i, b := range pool {
		if i%31 != 0 {
			continue
		}
		checked++
		e := &d.entries[ids[b]]
		saved := *e
		*e = entry{state: Exclusive}
		err := d.CheckInvariants()
		if want := fmt.Sprintf("block id %d ", ids[b]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("corrupted id %d: CheckInvariants = %v", ids[b], err)
		}
		*e = saved
	}
	if checked < 100 {
		t.Errorf("only %d entries were corrupted and checked", checked)
	}
}

// permutation returns a pseudo-random permutation of [0, n).
func permutation(rnd *rng.Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rnd.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

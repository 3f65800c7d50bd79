package coherence

import (
	"fmt"
	"math/bits"
	"testing"

	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// state is a block's explicit MESI state in the reference directory.
type state uint8

const (
	invalid state = iota
	shared
	exclusive
	modified
)

// merged is the state the Directory can tell from a sharer count:
// Exclusive and Modified are one.
func (s state) merged() string {
	switch s {
	case invalid:
		return "I"
	case shared:
		return "S"
	default:
		return "E/M"
	}
}

// refEntry is one block's record in the reference directory.
type refEntry struct {
	state   state
	sharers [2]uint64 // bitmask of cores holding the block
}

func (e *refEntry) addSharer(core uint8)      { e.sharers[core>>6] |= 1 << (core & 63) }
func (e *refEntry) hasSharer(core uint8) bool { return e.sharers[core>>6]>>(core&63)&1 == 1 }
func (e *refEntry) sharerCount() int {
	return bits.OnesCount64(e.sharers[0]) + bits.OnesCount64(e.sharers[1])
}

// mapDirectory is the directory as it was when it kept an explicit MESI
// state per block beside the sharer set, and numbered blocks itself
// through a Go map from raw block number to a slab position. Load and
// Store report a cross-core event where that directory stamped the
// block's last-event clock. It is the reference the sharer-count
// Directory is compared against.
type mapDirectory struct {
	index map[uint64]uint32 // block → slab position + 1
	slab  []refEntry
	stats Stats
}

// newMapDirectory returns an empty directory.
func newMapDirectory() *mapDirectory {
	return &mapDirectory{index: make(map[uint64]uint32, 1<<16)}
}

// lookup returns the entry tracking block, or nil if none. The pointer is
// valid only until the next ensure (a slab append may move entries).
func (d *mapDirectory) lookup(block uint64) *refEntry {
	if i := d.index[block]; i != 0 {
		return &d.slab[i-1]
	}
	return nil
}

// ensure returns the entry tracking block, appending a fresh Invalid one
// to the slab if the block is untracked.
func (d *mapDirectory) ensure(block uint64) *refEntry {
	if i := d.index[block]; i != 0 {
		return &d.slab[i-1]
	}
	d.slab = append(d.slab, refEntry{})
	d.index[block] = uint32(len(d.slab))
	return &d.slab[len(d.slab)-1]
}

// stateOf reports a block's current state and sharer count.
func (d *mapDirectory) stateOf(block uint64) (state, int) {
	e := d.lookup(block)
	if e == nil {
		return invalid, 0
	}
	return e.state, e.sharerCount()
}

// load processes a read of block by core.
func (d *mapDirectory) load(core uint8, block uint64) (event bool) {
	d.stats.Loads++
	e := d.ensure(block)
	switch e.state {
	case invalid:
		d.stats.ColdFills++
		e.state = exclusive
		e.addSharer(core)
	case shared:
		if !e.hasSharer(core) {
			e.addSharer(core)
			event = true
		}
	case exclusive, modified:
		if e.hasSharer(core) {
			return false // silent hit in the owner
		}
		// Remote load: owner downgrades, data forwarded cache-to-cache.
		d.stats.Downgrades++
		d.stats.C2CTransfers++
		e.state = shared
		e.addSharer(core)
		event = true
	}
	return event
}

// store processes a write of block by core.
func (d *mapDirectory) store(core uint8, block uint64) (event bool) {
	d.stats.Stores++
	e := d.ensure(block)
	switch e.state {
	case invalid:
		d.stats.ColdFills++
	case modified, exclusive:
		if e.hasSharer(core) {
			e.state = modified
			return false
		}
		// Remote store: invalidate the owner, transfer ownership.
		d.stats.Invalidations++
		d.stats.C2CTransfers++
		e.sharers = [2]uint64{}
		event = true
	case shared:
		// Kill all other copies; an existing copy of our own is an
		// upgrade (permission) miss.
		n := e.sharerCount()
		if e.hasSharer(core) {
			d.stats.UpgradeMisses++
			d.stats.Invalidations += uint64(n - 1)
			event = n > 1
		} else {
			d.stats.Invalidations += uint64(n)
			event = true
		}
		e.sharers = [2]uint64{}
	}
	e.state = modified
	e.addSharer(core)
	return event
}

// TestDirectoryMatchesMapDirectory runs the same random traffic through
// the Directory, keyed by a dense id per block, and the explicit-state
// reference, keyed by the raw block number, at 8, 64 and 128 cores. After
// every access it compares the cross-core flag, the statistics, and the
// touched block's and a random block's sharer count and state, with
// Exclusive and Modified merged. The ids are a scrambled numbering of a
// sparse block pool (block 0 and the largest block number included), so
// an entry reached through the wrong id shows up as a mismatch; the
// traffic concentrates on a few blocks now and then so that sharer sets
// grow wide. The same traffic also runs through Observe in batches.
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
	for _, cores := range []int{8, 64, 128} {
		t.Run(fmt.Sprintf("%d cores", cores), func(t *testing.T) {
			d, ref := NewDirectory(len(pool), cores), newMapDirectory()
			// batched sees the same traffic through Observe, a batch of
			// 1 to 64 references at a time, and is compared at each
			// batch's end.
			batched := NewDirectory(len(pool), cores)
			var batch []trace.Access
			var batchIDs []uint32
			batchLen := 1
			observe := func(step int) {
				t.Helper()
				batched.Observe(batch, batchIDs)
				if batched.Stats() != ref.stats {
					t.Fatalf("step %d: batched stats %+v, reference %+v", step, batched.Stats(), ref.stats)
				}
				for i, a := range batch {
					if _, n := ref.stateOf(uint64(a.Addr)); batched.Sharers(batchIDs[i]) != n {
						t.Fatalf("step %d: batched block id %d has %d sharers, reference %d", step, batchIDs[i], batched.Sharers(batchIDs[i]), n)
					}
				}
				batch, batchIDs = batch[:0], batchIDs[:0]
			}
			compare := func(step int, b uint64) {
				t.Helper()
				s, n := ref.stateOf(b)
				got := d.Sharers(ids[b])
				var gotState string
				switch {
				case got == 0:
					gotState = "I"
				case got == 1:
					gotState = "E/M"
				default:
					gotState = "S"
				}
				if got != n || gotState != s.merged() {
					t.Fatalf("step %d block %#x (id %d): %d sharers (%s), reference %d (%s)",
						step, b, ids[b], got, gotState, n, s.merged())
				}
				if d.Stats() != ref.stats {
					t.Fatalf("step %d: stats %+v, reference %+v", step, d.Stats(), ref.stats)
				}
			}
			rnd := rng.New(21 + uint64(cores))
			const steps = 200000
			events := 0
			for step := 0; step < steps; step++ {
				// The reachable part of the pool widens over the run, so
				// that fresh blocks keep arriving while earlier ones are
				// revisited; one step in four draws from the first 16.
				reach := 1 + step*len(pool)/steps
				if rnd.Intn(4) == 0 {
					reach = min(reach, 16)
				}
				b := pool[rnd.Intn(reach)]
				core := uint8(rnd.Intn(cores))
				var got, want bool
				write := false
				switch rnd.Intn(8) {
				case 1, 2, 3:
					got, want = d.Store(core, ids[b]), ref.store(core, b)
					write = true
				default:
					got, want = d.Load(core, ids[b]), ref.load(core, b)
				}
				// Addr carries the raw block, for the reference's lookup.
				batch = append(batch, trace.Access{Core: core, Write: write, Addr: trace.Addr(b)})
				batchIDs = append(batchIDs, ids[b])
				if len(batch) == batchLen {
					observe(step)
					batchLen = 1 + rnd.Intn(64)
				}
				if got != want {
					t.Fatalf("step %d: core %d block %#x: cross-core event %v, reference %v", step, core, b, got, want)
				}
				if got {
					events++
				}
				compare(step, b)
				compare(step, pool[rnd.Intn(len(pool))]) // mostly untracked blocks early on
			}
			observe(steps)
			for _, b := range pool {
				compare(-1, b)
			}
			st := d.Stats()
			if events == 0 || st.Downgrades == 0 || st.UpgradeMisses == 0 || st.Invalidations <= st.C2CTransfers {
				t.Errorf("the traffic exercised too little: %d events, %+v", events, st)
			}
		})
	}
}

// permutation returns a pseudo-random permutation of [0, n).
func permutation(rnd *rng.Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rnd.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

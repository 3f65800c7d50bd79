package coherence

import (
	"testing"
	"testing/quick"

	"sharellc/internal/rng"
)

func TestColdLoadGoesExclusive(t *testing.T) {
	d := NewDirectory(1024, 8)
	if d.Load(0, 1) {
		t.Error("a cold load reported a cross-core event")
	}
	if n := d.Sharers(1); n != 1 {
		t.Errorf("sharers = %d, want 1 (E)", n)
	}
	if d.Stats().ColdFills != 1 {
		t.Errorf("cold fills = %d", d.Stats().ColdFills)
	}
	// Silent upgrade: owner's store keeps one sharer, state M.
	if d.Store(0, 1) {
		t.Error("the owner's store reported a cross-core event")
	}
	if n := d.Sharers(1); n != 1 {
		t.Errorf("after owner store: %d sharers, want 1 (M)", n)
	}
	if d.Stats().Invalidations != 0 || d.Stats().C2CTransfers != 0 {
		t.Errorf("silent upgrade generated traffic: %+v", d.Stats())
	}
}

func TestRemoteLoadDowngrades(t *testing.T) {
	d := NewDirectory(1024, 8)
	d.Store(0, 1) // M at core 0
	if !d.Load(1, 1) {
		t.Error("a remote read reported no cross-core event")
	}
	if n := d.Sharers(1); n != 2 {
		t.Errorf("sharers = %d, want 2 (S)", n)
	}
	s := d.Stats()
	if s.Downgrades != 1 || s.C2CTransfers != 1 {
		t.Errorf("stats = %+v, want 1 downgrade + 1 C2C", s)
	}
	if d.Load(0, 1) || d.Load(1, 1) {
		t.Error("a sharer's own read reported a cross-core event")
	}
}

func TestRemoteStoreInvalidates(t *testing.T) {
	d := NewDirectory(1024, 8)
	d.Load(0, 1)
	d.Load(1, 1)
	d.Load(2, 1) // S with 3 sharers
	if !d.Store(3, 1) {
		t.Error("a remote store reported no cross-core event")
	}
	if n := d.Sharers(1); n != 1 {
		t.Errorf("sharers = %d, want 1 (M)", n)
	}
	if d.Stats().Invalidations != 3 {
		t.Errorf("invalidations = %d, want 3", d.Stats().Invalidations)
	}
}

func TestUpgradeMiss(t *testing.T) {
	d := NewDirectory(1024, 8)
	d.Load(0, 1)
	d.Load(1, 1) // S {0,1}
	if !d.Store(0, 1) {
		t.Error("an upgrade miss reported no cross-core event")
	}
	s := d.Stats()
	if s.UpgradeMisses != 1 {
		t.Errorf("upgrade misses = %d, want 1", s.UpgradeMisses)
	}
	if s.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1 (core 1's copy)", s.Invalidations)
	}
	if n := d.Sharers(1); n != 1 {
		t.Errorf("sharers = %d", n)
	}
}

func TestRemoteStoreOnModified(t *testing.T) {
	d := NewDirectory(1024, 8)
	d.Store(0, 1)
	d.Store(1, 1)
	s := d.Stats()
	if s.Invalidations != 1 || s.C2CTransfers != 1 {
		t.Errorf("stats = %+v", s)
	}
	if n := d.Sharers(1); n != 1 {
		t.Errorf("sharers = %d", n)
	}
}

func TestColdStoreNoSpuriousTraffic(t *testing.T) {
	d := NewDirectory(1024, 8)
	d.Store(2, 7)
	s := d.Stats()
	if s.Invalidations != 0 || s.UpgradeMisses != 0 || s.ColdFills != 1 {
		t.Errorf("cold store stats = %+v", s)
	}
}

// TestColdAccessReportsNoEvent: first touches are no cross-core event,
// and a block nobody touched has no sharer.
func TestColdAccessReportsNoEvent(t *testing.T) {
	d := NewDirectory(1024, 8)
	if d.Load(0, 1) || d.Store(3, 2) {
		t.Error("a cold access reported a cross-core event")
	}
	if n := d.Sharers(999); n != 0 {
		t.Errorf("an untouched block has %d sharers", n)
	}
}

// TestInvariantsUnderRandomTraffic is the protocol's main property test:
// after any interleaving of loads and stores, the accessing core holds
// the block, a store leaves it the only holder, every block's first
// touch is its one cold fill, and no block ever shows one Shared
// sharer (a cross-core load always leaves at least two).
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64, wide bool) bool {
		rnd := rng.New(seed)
		cores := 8
		if wide {
			cores = 128
		}
		d := NewDirectory(64, cores)
		touched := map[uint32]bool{}
		for i := 0; i < 5000; i++ {
			core := uint8(rnd.Intn(cores))
			block := uint32(rnd.Intn(64))
			touched[block] = true
			var ev bool
			if rnd.Intn(4) == 0 {
				ev = d.Store(core, block)
				if n := d.Sharers(block); n != 1 {
					t.Logf("after a store block %d has %d sharers", block, n)
					return false
				}
			} else {
				ev = d.Load(core, block)
				if n := d.Sharers(block); n < 1 || ev && n < 2 {
					t.Logf("after a load (event %v) block %d has %d sharers", ev, block, n)
					return false
				}
			}
			if !d.has(core, block) {
				t.Logf("core %d lost block %d it just accessed", core, block)
				return false
			}
		}
		return d.Stats().ColdFills == uint64(len(touched))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// has reports whether core holds block id.
func (d *Directory) has(core uint8, id uint32) bool {
	pos := uint(id)<<d.shift + uint(core)
	return d.sharers[pos>>6]>>(pos&63)&1 == 1
}

func TestLoadsStoresCounted(t *testing.T) {
	d := NewDirectory(1024, 8)
	for i := 0; i < 10; i++ {
		d.Load(0, uint32(i))
	}
	for i := 0; i < 5; i++ {
		d.Store(1, uint32(i))
	}
	s := d.Stats()
	if s.Loads != 10 || s.Stores != 5 {
		t.Errorf("counts = %d/%d", s.Loads, s.Stores)
	}
}

// TestDirectoryCoreCeiling: the sharer sets hold every core up to the
// ceiling, and a directory for more cores is refused.
func TestDirectoryCoreCeiling(t *testing.T) {
	d := NewDirectory(4, MaxCores)
	for c := 0; c < MaxCores; c++ {
		d.Load(uint8(c), 3)
	}
	if n := d.Sharers(3); n != MaxCores {
		t.Errorf("%d sharers after %d cores read, want %d", n, MaxCores, MaxCores)
	}
	if d.Store(127, 3); d.Stats().Invalidations != MaxCores-1 || d.Stats().UpgradeMisses != 1 {
		t.Errorf("stats after core 127's upgrade: %+v", d.Stats())
	}
	for _, cores := range []int{0, MaxCores + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDirectory(4, %d) did not panic", cores)
				}
			}()
			NewDirectory(4, cores)
		}()
	}
}

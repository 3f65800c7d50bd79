package coherence

import (
	"testing"
	"testing/quick"

	"sharellc/internal/rng"
)

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", uint8(s), s.String())
		}
	}
	if State(9).String() == "" {
		t.Error("unknown state empty")
	}
}

func TestColdLoadGoesExclusive(t *testing.T) {
	d := NewDirectory(1024)
	d.Load(0, 1)
	if st, n := d.StateOf(1); st != Exclusive || n != 1 {
		t.Errorf("state = %v/%d, want E/1", st, n)
	}
	if d.Stats().ColdFills != 1 {
		t.Errorf("cold fills = %d", d.Stats().ColdFills)
	}
	// Silent upgrade: owner's store keeps one sharer, state M.
	d.Store(0, 1)
	if st, n := d.StateOf(1); st != Modified || n != 1 {
		t.Errorf("after owner store: %v/%d, want M/1", st, n)
	}
	if d.Stats().Invalidations != 0 || d.Stats().C2CTransfers != 0 {
		t.Errorf("silent upgrade generated traffic: %+v", d.Stats())
	}
}

func TestRemoteLoadDowngrades(t *testing.T) {
	d := NewDirectory(1024)
	d.Store(0, 1) // M at core 0
	d.Load(1, 1)  // remote read
	if st, n := d.StateOf(1); st != Shared || n != 2 {
		t.Errorf("state = %v/%d, want S/2", st, n)
	}
	s := d.Stats()
	if s.Downgrades != 1 || s.C2CTransfers != 1 {
		t.Errorf("stats = %+v, want 1 downgrade + 1 C2C", s)
	}
	if _, ok := d.LastSharingEvent(1); !ok {
		t.Error("sharing event not recorded")
	}
}

func TestRemoteStoreInvalidates(t *testing.T) {
	d := NewDirectory(1024)
	d.Load(0, 1)
	d.Load(1, 1)
	d.Load(2, 1) // S with 3 sharers
	d.Store(3, 1)
	if st, n := d.StateOf(1); st != Modified || n != 1 {
		t.Errorf("state = %v/%d, want M/1", st, n)
	}
	if d.Stats().Invalidations != 3 {
		t.Errorf("invalidations = %d, want 3", d.Stats().Invalidations)
	}
}

func TestUpgradeMiss(t *testing.T) {
	d := NewDirectory(1024)
	d.Load(0, 1)
	d.Load(1, 1) // S {0,1}
	d.Store(0, 1)
	s := d.Stats()
	if s.UpgradeMisses != 1 {
		t.Errorf("upgrade misses = %d, want 1", s.UpgradeMisses)
	}
	if s.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1 (core 1's copy)", s.Invalidations)
	}
	if st, n := d.StateOf(1); st != Modified || n != 1 {
		t.Errorf("state = %v/%d", st, n)
	}
}

func TestRemoteStoreOnModified(t *testing.T) {
	d := NewDirectory(1024)
	d.Store(0, 1)
	d.Store(1, 1)
	s := d.Stats()
	if s.Invalidations != 1 || s.C2CTransfers != 1 {
		t.Errorf("stats = %+v", s)
	}
	if st, n := d.StateOf(1); st != Modified || n != 1 {
		t.Errorf("state = %v/%d", st, n)
	}
}

func TestColdStoreNoSpuriousTraffic(t *testing.T) {
	d := NewDirectory(1024)
	d.Store(2, 7)
	s := d.Stats()
	if s.Invalidations != 0 || s.UpgradeMisses != 0 || s.ColdFills != 1 {
		t.Errorf("cold store stats = %+v", s)
	}
}

func TestLastSharingEventAbsent(t *testing.T) {
	d := NewDirectory(1024)
	d.Load(0, 1) // cold, no sharing
	if _, ok := d.LastSharingEvent(1); ok {
		t.Error("cold block reported a sharing event")
	}
	if _, ok := d.LastSharingEvent(999); ok {
		t.Error("unknown block reported a sharing event")
	}
}

// TestInvariantsUnderRandomTraffic is the protocol's main property test:
// after any interleaving of loads and stores, the MESI invariants hold.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		d := NewDirectory(1024)
		for i := 0; i < 5000; i++ {
			core := uint8(rnd.Intn(8))
			block := uint32(rnd.Intn(64))
			switch rnd.Intn(4) {
			case 0:
				d.Store(core, block)
			default:
				d.Load(core, block)
			}
			if i%257 == 0 {
				if err := d.CheckInvariants(); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		return d.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLoadsStoresCounted(t *testing.T) {
	d := NewDirectory(1024)
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
	if d.Clock() != 15 {
		t.Errorf("clock = %d", d.Clock())
	}
}

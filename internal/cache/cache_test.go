package cache

import (
	"testing"
	"testing/quick"

	"sharellc/internal/trace"
)

// tiny returns a small cache for directed tests: 4 sets x 2 ways = 8 blocks.
func tiny(t *testing.T) *SetAssoc {
	t.Helper()
	c, err := NewSetAssoc(8*trace.BlockSize, 2, &LRU{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ai(block uint64) AccessInfo { return AccessInfo{Block: block} }

// probe reports whether block is resident in c without touching
// replacement state.
func probe(c *SetAssoc, block uint64) bool {
	base := c.SetOf(block) * c.ways
	for _, ln := range c.lines[base : base+c.ways] {
		if ln == tagOf(block) {
			return true
		}
	}
	return false
}

// resident counts the valid lines of c.
func resident(c *SetAssoc) int {
	n := 0
	for _, ln := range c.lines {
		if ln.valid() {
			n++
		}
	}
	return n
}

func TestGeometryValidation(t *testing.T) {
	cases := []struct {
		size, ways int
		ok         bool
	}{
		{8 * trace.BlockSize, 2, true},
		{4 * MB, 16, true},
		{0, 4, false},
		{4 * MB, 0, false},
		{63, 1, false},                  // not a block multiple
		{3 * trace.BlockSize, 2, false}, // fractional sets
		{6 * trace.BlockSize, 2, false}, // 3 sets: not power of two
		{-4096, 4, false},
	}
	for _, c := range cases {
		_, err := NewSetAssoc(c.size, c.ways, &LRU{})
		if (err == nil) != c.ok {
			t.Errorf("NewSetAssoc(%d, %d): err=%v, want ok=%v", c.size, c.ways, err, c.ok)
		}
	}
	if _, err := NewSetAssoc(4096, 4, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := tiny(t)
	if r := c.Access(ai(1)); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(ai(1)); !r.Hit {
		t.Error("second access to same block missed")
	}
	if r := c.Access(ai(2)); r.Hit {
		t.Error("different block hit")
	}
}

func TestConflictEvictionLRUOrder(t *testing.T) {
	c := tiny(t) // 4 sets, 2 ways; blocks 0,4,8,12 map to set 0
	c.Access(ai(0))
	c.Access(ai(4))
	c.Access(ai(0)) // 0 is now MRU, 4 is LRU
	r := c.Access(ai(8))
	if r.Hit {
		t.Fatal("fill of third conflicting block hit")
	}
	if !r.Evicted || r.Victim != 4 {
		t.Errorf("expected eviction of block 4, got evicted=%v victim=%d", r.Evicted, r.Victim)
	}
	if !c.Access(ai(0)).Hit {
		t.Error("MRU block 0 was evicted")
	}
}

// TestInvalidate covers back-invalidation of the private levels: an
// invalidated block is gone from L1 and L2, so its next reference reaches
// the LLC again, and invalidating an absent block changes nothing.
func TestInvalidate(t *testing.T) {
	h, err := newHierarchy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Access{Core: 0, Addr: 5 << trace.BlockShift}
	for i, want := range []bool{true, false} {
		if toLLC, err := h.Access(a); err != nil || toLLC != want {
			t.Fatalf("access %d: toLLC = %v, %v; want %v", i, toLLC, err, want)
		}
	}
	h.invalidate(5)
	h.invalidate(5)
	h.invalidate(6)
	for i, want := range []bool{true, false} {
		if toLLC, err := h.Access(a); err != nil || toLLC != want {
			t.Fatalf("access %d after invalidation: toLLC = %v, %v; want %v", i, toLLC, err, want)
		}
	}
}

func TestContentsNeverExceedsCapacity(t *testing.T) {
	f := func(blocks []uint64) bool {
		c, err := NewSetAssoc(8*trace.BlockSize, 2, &LRU{})
		if err != nil {
			return false
		}
		for _, b := range blocks {
			c.Access(ai(b % 64))
		}
		return resident(c) <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a block just accessed is always present immediately afterwards.
func TestAccessedBlockIsResident(t *testing.T) {
	f := func(blocks []uint64) bool {
		c, err := NewSetAssoc(8*trace.BlockSize, 2, &LRU{})
		if err != nil {
			return false
		}
		for _, b := range blocks {
			b %= 256
			c.Access(ai(b))
			if !probe(c, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with W ways, cycling over W distinct conflicting blocks under
// LRU always hits after the first round (LRU keeps a working set == assoc).
func TestLRURetainsWorkingSetEqualToAssoc(t *testing.T) {
	c, err := NewSetAssoc(64*trace.BlockSize, 8, &LRU{}) // 8 sets x 8 ways
	if err != nil {
		t.Fatal(err)
	}
	blocks := []uint64{0, 8, 16, 24, 32, 40, 48, 56} // all set 0
	for _, b := range blocks {
		if c.Access(ai(b)).Hit {
			t.Fatal("cold fill hit")
		}
	}
	for round := 0; round < 3; round++ {
		for _, b := range blocks {
			if !c.Access(ai(b)).Hit {
				t.Fatalf("round %d: block %d missed; LRU lost a fitting working set", round, b)
			}
		}
	}
}

// Property: with W ways, cycling over W+1 conflicting blocks under LRU
// never hits (the classic LRU pathological case).
func TestLRUThrashesOnWorkingSetPlusOne(t *testing.T) {
	c, err := NewSetAssoc(16*trace.BlockSize, 2, &LRU{}) // 8 sets x 2 ways
	if err != nil {
		t.Fatal(err)
	}
	blocks := []uint64{0, 8, 16} // all set 0, 3 blocks in 2 ways
	for round := 0; round < 5; round++ {
		for _, b := range blocks {
			if c.Access(ai(b)).Hit {
				t.Fatalf("round %d: block %d hit; LRU should thrash on W+1 cyclic set", round, b)
			}
		}
	}
}

func TestAccessors(t *testing.T) {
	c, err := NewSetAssoc(4*MB, 16, &LRU{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 4096 || c.Ways() != 16 {
		t.Errorf("geometry = %d sets x %d ways", c.Sets(), c.Ways())
	}
	if c.Policy().Name() != "lru" {
		t.Errorf("Policy().Name() = %q", c.Policy().Name())
	}
	if got := c.SetOf(4096); got != 0 {
		t.Errorf("SetOf(4096) = %d", got)
	}
}

func TestLRUDemote(t *testing.T) {
	p := &LRU{}
	p.Attach(1, 4)
	for w := 0; w < 4; w++ {
		p.Fill(0, w, &AccessInfo{})
	}
	// Way 3 is MRU; demoting it makes it the victim.
	p.Demote(0, 3)
	if v := p.Victim(0, &AccessInfo{}); v != 3 {
		t.Errorf("victim after Demote = %d, want 3", v)
	}
	if p.Name() != "lru" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Ways() != 4 {
		t.Errorf("Ways = %d", p.Ways())
	}
	if p.Stamp(0, 0) == 0 {
		t.Error("Stamp of touched way is zero")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("0-core config validated")
	}
	bad = DefaultConfig()
	bad.L1Size = 100
	if err := bad.Validate(); err == nil {
		t.Error("bogus L1 size validated")
	}
}

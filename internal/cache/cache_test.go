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

func TestDirtyTracking(t *testing.T) {
	c := tiny(t)
	c.Access(AccessInfo{Block: 0, Write: true})
	c.Access(ai(4))
	r := c.Access(ai(8)) // evicts block 0 (LRU) which is dirty
	if !r.Evicted || r.Victim != 0 || !r.VictimDirty {
		t.Errorf("expected dirty eviction of block 0, got %+v", r)
	}
	// A clean block evicts clean.
	c2 := tiny(t)
	c2.Access(ai(0))
	c2.Access(ai(4))
	if r := c2.Access(ai(8)); r.VictimDirty {
		t.Error("clean victim reported dirty")
	}
	// Write hit marks dirty.
	c3 := tiny(t)
	c3.Access(ai(0))
	c3.Access(AccessInfo{Block: 0, Write: true})
	c3.Access(ai(4))
	if r := c3.Access(ai(8)); !r.VictimDirty {
		t.Error("write-hit did not mark line dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny(t)
	c.Access(AccessInfo{Block: 5, Write: true})
	present, dirty := c.Invalidate(5)
	if !present || !dirty {
		t.Errorf("Invalidate(5) = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Probe(5) {
		t.Error("block still present after invalidation")
	}
	if present, _ := c.Invalidate(5); present {
		t.Error("double invalidation reported present")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := tiny(t)
	c.Access(ai(0))
	c.Access(ai(4)) // 0 is LRU
	if !c.Probe(0) || !c.Probe(4) || c.Probe(8) {
		t.Fatal("Probe gave wrong presence")
	}
	// Probing 0 must not promote it: 0 must still be the victim.
	if r := c.Access(ai(8)); r.Victim != 0 {
		t.Errorf("Probe perturbed LRU state: victim = %d, want 0", r.Victim)
	}
}

func TestStatsCounts(t *testing.T) {
	c := tiny(t)
	c.Access(ai(0))
	c.Access(ai(0))
	c.Access(ai(4))
	c.Access(ai(8))
	accesses, hits, fills, evicts := c.Stats()
	if accesses != 4 || hits != 1 || fills != 3 || evicts != 1 {
		t.Errorf("Stats = (%d,%d,%d,%d), want (4,1,3,1)", accesses, hits, fills, evicts)
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
		return len(c.Contents()) <= 8
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
			if !c.Probe(b) {
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

func TestLRUStackPosition(t *testing.T) {
	p := &LRU{}
	p.Attach(1, 4)
	for w := 0; w < 4; w++ {
		p.Fill(0, w, &AccessInfo{})
	}
	// Order of recency now: way3 (MRU) ... way0 (LRU).
	if got := p.StackPosition(0, 3); got != 0 {
		t.Errorf("way 3 stack position = %d, want 0 (MRU)", got)
	}
	if got := p.StackPosition(0, 0); got != 3 {
		t.Errorf("way 0 stack position = %d, want 3 (LRU)", got)
	}
	p.Hit(0, 0, &AccessInfo{})
	if got := p.StackPosition(0, 0); got != 0 {
		t.Errorf("after hit, way 0 stack position = %d, want 0", got)
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
	if c.SizeBytes() != 4*MB {
		t.Errorf("SizeBytes = %d", c.SizeBytes())
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

func TestConfigWithLLC(t *testing.T) {
	c := DefaultConfig().WithLLC(8*MB, 32)
	if c.LLCSize != 8*MB || c.LLCWays != 32 {
		t.Errorf("WithLLC = %+v", c)
	}
	if DefaultConfig().LLCSize != 4*MB {
		t.Error("WithLLC mutated the receiver")
	}
}

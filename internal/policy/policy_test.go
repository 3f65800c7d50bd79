package policy

import (
	"math"
	"testing"
	"testing/quick"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

func TestCatalogueNamesUniqueAndStable(t *testing.T) {
	names := Names(1)
	want := []string{"lru", "random", "fifo", "nru", "plru", "lip", "bip", "dip", "srrip", "brrip", "drrip", "ship", "ship-s", "opt"}
	if len(names) != len(want) {
		t.Fatalf("catalogue has %d policies, want %d: %v", len(names), len(want), names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("catalogue[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestByName(t *testing.T) {
	f, err := ByName("srrip", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := f().Name(); got != "srrip" {
		t.Errorf("ByName(srrip) built %q", got)
	}
	if _, err := ByName("nonesuch", 1); err == nil {
		t.Error("unknown policy name accepted")
	}
}

// TestCatalogueProperties pins, per catalogue name, the name round trip
// through ByName, PerSet (true exactly for the policies with no cross-set
// state: no shared RNG draw, dueling selector or global table) and
// whether NewSetAssoc binds a batch kernel (every policy but OPT). A mode
// of a policy family must not inherit a sibling mode's answers.
func TestCatalogueProperties(t *testing.T) {
	perSet := map[string]bool{"lru": true, "fifo": true, "nru": true, "plru": true, "lip": true, "srrip": true, "opt": true}
	names := Names(3)
	if len(names) != 14 {
		t.Fatalf("catalogue has %d policies, want 14", len(names))
	}
	for _, name := range names {
		f, err := ByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		p := f()
		if got := p.Name(); got != name {
			t.Errorf("ByName(%q) built %q", name, got)
		}
		if got := PerSet(p); got != perSet[name] {
			t.Errorf("PerSet(%s) = %v, want %v", name, got, perSet[name])
		}
		c, err := cache.NewSetAssoc(64*16*trace.BlockSize, 16, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.HasBatchKernel(), name != "opt"; got != want {
			t.Errorf("%s: batch kernel bound = %v, want %v", name, got, want)
		}
	}
}

func newCache(t *testing.T, p cache.Policy, ways int) *cache.SetAssoc {
	t.Helper()
	c, err := cache.NewSetAssoc(4*ways*trace.BlockSize, ways, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ai(block uint64) cache.AccessInfo { return cache.AccessInfo{Block: block} }

// tally presents accesses to c and counts the fills and evictions their
// Access results report.
type tally struct {
	c             *cache.SetAssoc
	fills, evicts uint64
}

func (t *tally) access(a cache.AccessInfo) {
	r := t.c.Access(a)
	if r.Hit {
		return
	}
	t.fills++
	if r.Evicted {
		t.evicts++
	}
}

// resident is the number of blocks the cache holds: nothing invalidates
// LLC lines, so it is fills minus evictions.
func (t *tally) resident() uint64 { return t.fills - t.evicts }

// TestAllPoliciesValidVictims drives every catalogue policy with a random
// conflict-heavy stream and checks the cache invariants hold (the cache
// panics on out-of-range victims, so survival is the assertion).
func TestAllPoliciesValidVictims(t *testing.T) {
	for _, f := range catalogue(7) {
		p := f()
		name := p.Name()
		t.Run(name, func(t *testing.T) {
			c := tally{c: newCache(t, p, 4)}
			rnd := rng.New(11)
			for i := 0; i < 20000; i++ {
				b := rnd.Uint64n(64) // 64 blocks over 16 lines: heavy conflicts
				c.access(cache.AccessInfo{Block: b, PC: 0x400 + b*4, Core: uint8(rnd.Intn(4))})
			}
			if got := c.resident(); got > 16 {
				t.Errorf("%s: %d resident blocks exceed capacity 16", name, got)
			}
			if c.evicts == 0 {
				t.Errorf("%s: no eviction on a conflict-heavy stream", name)
			}
		})
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := &cache.LRU{}
	c := newCache(t, p, 4) // set 0: blocks 0,4,8,12,16...
	for _, b := range []uint64{0, 4, 8, 12} {
		c.Access(ai(b))
	}
	c.Access(ai(0)) // 4 becomes LRU
	if r := c.Access(ai(16)); r.Victim != 4 {
		t.Errorf("victim = %d, want 4", r.Victim)
	}
}

// TestLRUDemoteWrapsOnUnfilledSet pins a known wrap rather than fixing
// it (a fix changes table bytes, so it needs its own declared change).
// Demoting a way while its set still has a never-filled way (stamp 0)
// stores min-1 = MaxUint64. Victim compares stamps unsigned and so ranks
// the demoted line most recent; VictimKeys negates them as int64 and
// ranks it least recent.
func TestLRUDemoteWrapsOnUnfilledSet(t *testing.T) {
	p := &cache.LRU{}
	p.Attach(1, 4)
	for w := 0; w < 3; w++ {
		p.Fill(0, w, &cache.AccessInfo{})
	}
	p.Demote(0, 1) // way 3 is still unfilled
	if s := p.Stamp(0, 1); s != math.MaxUint64 {
		t.Fatalf("demoted stamp = %d, want the wrapped MaxUint64", s)
	}
	p.Fill(0, 3, &cache.AccessInfo{})
	if v := p.Victim(0, &cache.AccessInfo{}); v != 0 {
		t.Errorf("Victim = %d, want 0: the wrapped stamp ranks way 1 most recent", v)
	}
	keys := make([]int64, 4)
	p.VictimKeys(0, keys)
	best := 0
	for w, k := range keys {
		if k > keys[best] {
			best = w
		}
	}
	if best != 1 {
		t.Errorf("VictimKeys %v rank way %d first, want 1: the negated wrapped stamp ranks it least recent", keys, best)
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	p := newFIFO()
	c := newCache(t, p, 2)
	c.Access(ai(0))
	c.Access(ai(4))
	c.Access(ai(0)) // hit; FIFO must NOT promote
	if r := c.Access(ai(8)); r.Victim != 0 {
		t.Errorf("FIFO victim = %d, want 0 (oldest fill)", r.Victim)
	}
}

func TestNRUVictimPrefersColdBit(t *testing.T) {
	p := newNRU()
	p.Attach(1, 4)
	for w := 0; w < 4; w++ {
		p.Fill(0, w, &cache.AccessInfo{})
	}
	// All bits set: Victim clears the set and returns way 0.
	if v := p.Victim(0, &cache.AccessInfo{}); v != 0 {
		t.Fatalf("saturated-set victim = %d, want 0", v)
	}
	// Now all bits are clear; touch way 0 and 1, victim must be 2.
	p.Hit(0, 0, &cache.AccessInfo{})
	p.Hit(0, 1, &cache.AccessInfo{})
	if v := p.Victim(0, &cache.AccessInfo{}); v != 2 {
		t.Errorf("victim = %d, want 2 (first clear bit)", v)
	}
}

func TestLIPDropsSingleUseBlocks(t *testing.T) {
	p := newLIP(static, nil)
	c := newCache(t, p, 4)
	// Establish a hot working set of 3 blocks in set 0 and re-touch them
	// so they hold MRU positions.
	hot := []uint64{0, 4, 8}
	for _, b := range hot {
		c.Access(ai(b))
	}
	for _, b := range hot {
		c.Access(ai(b)) // promote to MRU
	}
	// Stream 100 single-use blocks through the same set: each is
	// inserted at LRU and must evict only its predecessor stream block,
	// never the hot set.
	for i := uint64(0); i < 100; i++ {
		c.Access(ai(12 + 4*i + 4))
	}
	for _, b := range hot {
		if !c.Access(ai(b)).Hit {
			t.Errorf("hot block %d was evicted by single-use stream under LIP", b)
		}
	}
}

func TestBIPMostlyInsertsAtLRU(t *testing.T) {
	p := newLIP(bimodal, rng.New(1))
	c := newCache(t, p, 4)
	hot := []uint64{0, 4, 8}
	for _, b := range hot {
		c.Access(ai(b))
		c.Access(ai(b))
	}
	surviving := 0
	for i := uint64(0); i < 50; i++ {
		c.Access(ai(16 + 4*i))
	}
	for _, b := range hot {
		if c.Access(ai(b)).Hit {
			surviving++
		}
	}
	// epsilon=1/32 means a few MRU insertions may displace one hot block,
	// but most of the hot set must survive.
	if surviving < 2 {
		t.Errorf("only %d/3 hot blocks survived a scan under BIP", surviving)
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// SRRIP: hot blocks at RRPV 0, scan blocks inserted at rripMax-1.
	// A one-pass scan should not wipe a re-referenced working set the way
	// it does under LRU.
	lruMisses := missesUnderPolicy(t, &cache.LRU{}, scanWorkload())
	srripMisses := missesUnderPolicy(t, newRRIP(static, nil), scanWorkload())
	if srripMisses >= lruMisses {
		t.Errorf("SRRIP misses %d >= LRU misses %d on mixed scan workload", srripMisses, lruMisses)
	}
}

// scanWorkload interleaves a small hot set with long scans through set 0
// of a 4-set, 4-way cache.
func scanWorkload() []cache.AccessInfo {
	var out []cache.AccessInfo
	hot := []uint64{0, 4}
	scan := uint64(400)
	for round := 0; round < 200; round++ {
		for rep := 0; rep < 3; rep++ {
			for _, b := range hot {
				out = append(out, ai(b))
			}
		}
		for i := uint64(0); i < 6; i++ { // scan burst through the same set
			out = append(out, ai(scan))
			scan += 4
		}
	}
	return out
}

func missesUnderPolicy(t *testing.T, p cache.Policy, stream []cache.AccessInfo) uint64 {
	t.Helper()
	c, err := cache.NewSetAssoc(4*4*trace.BlockSize, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	var misses uint64
	for _, a := range stream {
		if !c.Access(a).Hit {
			misses++
		}
	}
	return misses
}

func TestDRRIPNotWorseThanWorstConstituent(t *testing.T) {
	stream := scanWorkload()
	s := missesUnderPolicy(t, newRRIP(static, nil), stream)
	b := missesUnderPolicy(t, newRRIP(bimodal, rng.New(2)), stream)
	d := missesUnderPolicy(t, newRRIP(dueling, rng.New(2)), stream)
	worst := s
	if b > worst {
		worst = b
	}
	// Set-dueling guarantees near-best, allow 10% slack over the worst
	// constituent to absorb leader-set overhead on this tiny cache.
	if float64(d) > 1.1*float64(worst) {
		t.Errorf("DRRIP misses %d far exceed both constituents (srrip %d, brrip %d)", d, s, b)
	}
}

func TestDIPNotWorseThanWorstConstituent(t *testing.T) {
	stream := scanWorkload()
	lru := missesUnderPolicy(t, &cache.LRU{}, stream)
	bip := missesUnderPolicy(t, newLIP(bimodal, rng.New(4)), stream)
	dip := missesUnderPolicy(t, newLIP(dueling, rng.New(4)), stream)
	worst := lru
	if bip > worst {
		worst = bip
	}
	if float64(dip) > 1.1*float64(worst) {
		t.Errorf("DIP misses %d far exceed both constituents (lru %d, bip %d)", dip, lru, bip)
	}
}

func TestBRRIPThrashResistance(t *testing.T) {
	// Cyclic working set of assoc+2 blocks: SRRIP thrashes like LRU,
	// BRRIP's mostly-distant insertion keeps a subset resident.
	var stream []cache.AccessInfo
	blocks := []uint64{0, 4, 8, 12, 16, 20} // 6 blocks, 4 ways, set 0
	for round := 0; round < 300; round++ {
		for _, b := range blocks {
			stream = append(stream, ai(b))
		}
	}
	srrip := missesUnderPolicy(t, newRRIP(static, nil), stream)
	brrip := missesUnderPolicy(t, newRRIP(bimodal, rng.New(6)), stream)
	if brrip >= srrip {
		t.Errorf("BRRIP misses %d >= SRRIP misses %d on cyclic overflow", brrip, srrip)
	}
}

func TestSHiPLearnsDeadPC(t *testing.T) {
	// One PC fills blocks that are never reused; another fills blocks
	// that are always reused. After training, dead-PC fills must insert
	// at distant RRPV.
	p := newSHiP(false)
	p.Attach(4, 4)
	const deadPC, livePC = 0x1000, 0x2000
	// Train the dead PC: keep set 0 full of dead-PC fills and let the
	// victim search evict them unused, decrementing the signature.
	for w := 0; w < 4; w++ {
		p.Fill(0, w, &cache.AccessInfo{PC: deadPC})
	}
	for i := 0; i < 50; i++ {
		v := p.Victim(0, &cache.AccessInfo{}) // evicted unused → decrement
		p.Fill(0, v, &cache.AccessInfo{PC: deadPC})
	}
	// Train the live PC: every residency sees a reuse.
	for i := 0; i < 50; i++ {
		p.Fill(1, 0, &cache.AccessInfo{PC: livePC})
		p.Hit(1, 0, &cache.AccessInfo{}) // reused → increment
	}
	p.Fill(2, 0, &cache.AccessInfo{PC: deadPC})
	p.Fill(2, 1, &cache.AccessInfo{PC: livePC})
	if p.rrpv[2*4+0] != rripMax {
		t.Errorf("dead-PC fill RRPV = %d, want %d (distant)", p.rrpv[2*4+0], rripMax)
	}
	if p.rrpv[2*4+1] != rripMax-1 {
		t.Errorf("live-PC fill RRPV = %d, want %d (long)", p.rrpv[2*4+1], rripMax-1)
	}
}

func TestSignatureStableAndBounded(t *testing.T) {
	f := func(pc uint64) bool {
		s := Signature(pc)
		return s == Signature(pc) && int(s) < 1<<shipTableBits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Signature(0x400000) == Signature(0x400004) {
		t.Error("adjacent instructions collide; signature ignores low PC bits poorly")
	}
}

func TestOPTBeatsLRUOnCyclicSet(t *testing.T) {
	// The classic case: cyclic reuse over assoc+1 blocks. LRU gets 0%
	// hits, OPT keeps ways-1 of them resident.
	var stream []cache.AccessInfo
	blocks := []uint64{0, 4, 8, 12, 16} // 5 blocks, 4 ways, all set 0
	for round := 0; round < 100; round++ {
		for _, b := range blocks {
			stream = append(stream, ai(b))
		}
	}
	annotate(stream)
	lru := missesUnderPolicy(t, &cache.LRU{}, stream)
	opt := missesUnderPolicy(t, newOPT(), stream)
	if lru != uint64(len(stream)) {
		t.Errorf("LRU misses = %d, want %d (total thrash)", lru, len(stream))
	}
	if opt >= lru/2 {
		t.Errorf("OPT misses = %d, not substantially better than LRU %d", opt, lru)
	}
}

// annotate fills NextUse like cache.AnnotateNextUse but for AccessInfo
// slices built directly in tests.
func annotate(stream []cache.AccessInfo) {
	next := map[uint64]int32{}
	for i := len(stream) - 1; i >= 0; i-- {
		stream[i].Index = int32(i)
		if n, ok := next[stream[i].Block]; ok {
			stream[i].NextUse = n
		} else {
			stream[i].NextUse = cache.NoNextUse
		}
		next[stream[i].Block] = int32(i)
	}
}

// TestOPTIsLowerBound is the core property test of the policy package:
// on random streams, OPT never incurs more misses than any other policy.
func TestOPTIsLowerBound(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 2000 + rnd.Intn(2000)
		stream := make([]cache.AccessInfo, n)
		for i := range stream {
			stream[i] = cache.AccessInfo{
				Block: rnd.Uint64n(96),
				PC:    0x400 + rnd.Uint64n(32)*4,
			}
		}
		annotate(stream)
		opt := missesUnderPolicy(t, newOPT(), stream)
		for _, mk := range catalogue(seed) {
			p := mk()
			if p.Name() == "opt" {
				continue
			}
			if missesUnderPolicy(t, p, stream) < opt {
				t.Logf("policy %s beat OPT on seed %d", p.Name(), seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPoliciesDeterministic(t *testing.T) {
	stream := scanWorkload()
	for _, name := range Names(42) {
		mk := func() cache.Policy {
			f, err := ByName(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			return f()
		}
		a := missesUnderPolicy(t, mk(), stream)
		b := missesUnderPolicy(t, mk(), stream)
		if a != b {
			t.Errorf("%s: runs with identical seeds diverged (%d vs %d misses)", name, a, b)
		}
	}
}

func TestDuelRoles(t *testing.T) {
	var d duel
	d.init(1024)
	aLeaders, bLeaders := 0, 0
	for s := 0; s < 1024; s++ {
		switch d.kind(s) {
		case +1:
			aLeaders++
		case -1:
			bLeaders++
		}
	}
	if aLeaders != 16 || bLeaders != 16 {
		t.Errorf("leader counts = (%d,%d), want (16,16)", aLeaders, bLeaders)
	}
	// A-leaders always run A, B-leaders always run B, regardless of PSEL.
	for i := 0; i < 2000; i++ {
		d.observeMiss(0) // A leader misses → psel rises → followers pick B
	}
	if !d.useA(0) {
		t.Error("A leader stopped using A")
	}
	if d.useA(d.period/2 + 1) {
		t.Error("B leader used A")
	}
	if d.useA(1) {
		t.Error("follower chose A despite A-leader misses saturating PSEL")
	}
}

func TestDuelTinyCache(t *testing.T) {
	var d duel
	d.init(4) // fewer sets than the leader period
	// Must not panic and must still classify sets.
	for s := 0; s < 4; s++ {
		d.observeMiss(s)
		d.useA(s)
	}
}

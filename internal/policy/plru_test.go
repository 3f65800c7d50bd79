package policy

import (
	"testing"
	"testing/quick"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

func TestPLRUPanicsOnBadWays(t *testing.T) {
	for _, ways := range []int{3, 6, 0, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Attach(1, %d) did not panic", ways)
				}
			}()
			newPLRU().Attach(1, ways)
		}()
	}
}

func TestPLRUDirectMapped(t *testing.T) {
	// 1-way PLRU degenerates to "always way 0" and must not panic.
	p := newPLRU()
	p.Attach(4, 1)
	p.Fill(0, 0, &cache.AccessInfo{})
	if v := p.Victim(0, &cache.AccessInfo{}); v != 0 {
		t.Errorf("victim = %d", v)
	}
}

func TestPLRUVictimNeverMostRecent(t *testing.T) {
	// Core guarantee of tree PLRU: the victim is never the most recently
	// touched way.
	f := func(seed uint64) bool {
		rnd := rng.New(seed)
		p := newPLRU()
		p.Attach(1, 8)
		last := -1
		for i := 0; i < 500; i++ {
			w := rnd.Intn(8)
			p.Hit(0, w, &cache.AccessInfo{})
			last = w
			if p.Victim(0, &cache.AccessInfo{}) == last {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPLRURetainsFittingWorkingSet(t *testing.T) {
	// Like true LRU, tree PLRU keeps a working set equal to the
	// associativity resident under cyclic access.
	c, err := cache.NewSetAssoc(8*trace.BlockSize, 8, newPLRU())
	if err != nil {
		t.Fatal(err)
	}
	blocks := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	for _, b := range blocks {
		c.Access(cache.AccessInfo{Block: b})
	}
	for round := 0; round < 3; round++ {
		for _, b := range blocks {
			if !c.Access(cache.AccessInfo{Block: b}).Hit {
				t.Fatalf("round %d: block %d missed", round, b)
			}
		}
	}
}

func TestPLRUApproximatesLRU(t *testing.T) {
	// On a random skewed stream PLRU should land within a few percent of
	// true LRU's miss count.
	rnd := rng.New(77)
	stream := make([]cache.AccessInfo, 30000)
	z, err := rng.NewZipf(rnd.Split(), 0.9, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stream {
		stream[i] = cache.AccessInfo{Block: uint64(z.Next())}
	}
	run := func(p cache.Policy) uint64 {
		c, err := cache.NewSetAssoc(16*8*trace.BlockSize, 8, p)
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
	lru := run(NewLRUPolicy())
	plru := run(newPLRU())
	if float64(plru) > 1.10*float64(lru) {
		t.Errorf("PLRU misses %d exceed LRU %d by more than 10%%", plru, lru)
	}
}

func TestPLRUDemotePointsVictim(t *testing.T) {
	p := newPLRU()
	p.Attach(1, 8)
	for w := 0; w < 8; w++ {
		p.Fill(0, w, &cache.AccessInfo{})
	}
	for w := 0; w < 8; w++ {
		p.Demote(0, w)
		if v := p.Victim(0, &cache.AccessInfo{}); v != w {
			t.Errorf("after Demote(%d) victim = %d", w, v)
		}
	}
}

func TestPLRURankHeadMatchesVictim(t *testing.T) {
	p := newPLRU()
	p.Attach(2, 8)
	rnd := rng.New(3)
	keys := make([]int64, 8)
	for i := 0; i < 1000; i++ {
		p.Hit(rnd.Intn(2), rnd.Intn(8), &cache.AccessInfo{})
		for set := 0; set < 2; set++ {
			p.VictimKeys(set, keys)
			if head, v := argmaxKey(keys), p.Victim(set, &cache.AccessInfo{}); head != v {
				t.Fatalf("best key at way %d != victim %d", head, v)
			}
		}
	}
}

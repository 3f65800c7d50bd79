package policy

import (
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

func TestSHiPSTrainsDoubleOnCrossCoreReuse(t *testing.T) {
	p := newSHiPS()
	p.Attach(4, 4)
	const pc = 0x3000
	sig := Signature(pc)
	start := p.shct[sig]
	// One residency with a cross-core first reuse: +2 total.
	p.Fill(0, 0, &cache.AccessInfo{PC: pc, Core: 0})
	p.Hit(0, 0, &cache.AccessInfo{Core: 1})
	if got := p.shct[sig]; got != start+2 {
		t.Errorf("cross-core reuse trained %d→%d, want +2", start, got)
	}
	// Same-core first reuse: +1 only.
	p2 := newSHiPS()
	p2.Attach(4, 4)
	p2.Fill(0, 0, &cache.AccessInfo{PC: pc, Core: 0})
	p2.Hit(0, 0, &cache.AccessInfo{Core: 0})
	if got := p2.shct[sig]; got != start+1 {
		t.Errorf("same-core reuse trained %d→%d, want +1", start, got)
	}
}

func TestSHiPSConfidentSiteInsertsAtZero(t *testing.T) {
	p := newSHiPS()
	p.Attach(4, 4)
	const pc = 0x5000
	sig := Signature(pc)
	p.shct[sig] = shipCounterMax // fully confident sharing site
	p.Fill(1, 2, &cache.AccessInfo{PC: pc, Core: 3})
	if got := p.rrpv[1*4+2]; got != 0 {
		t.Errorf("confident-site fill RRPV = %d, want 0", got)
	}
	// An unconfident site inserts like SHiP (long or distant).
	p.shct[Signature(0x6000)] = 1
	p.Fill(1, 3, &cache.AccessInfo{PC: 0x6000, Core: 3})
	if got := p.rrpv[1*4+3]; got != rripMax-1 {
		t.Errorf("weak-site fill RRPV = %d, want %d", got, rripMax-1)
	}
}

func TestSHiPSBeatsSHiPOnSharedReuse(t *testing.T) {
	// A stream where one PC fills blocks with cross-core reuse just past
	// what plain SRRIP-insertion survives, and another PC streams
	// single-use blocks. SHiP-S protects the sharing site harder.
	var stream []cache.AccessInfo
	add := func(core uint8, block uint64, pc uint64) {
		stream = append(stream, cache.AccessInfo{Core: core, Block: block, PC: pc, Index: int32(len(stream))})
	}
	const sharePC, streamPC = 0x100, 0x200
	next := uint64(1000)
	for round := 0; round < 400; round++ {
		b := uint64(round % 3) // 3 hot shared blocks in set 0 (block*4)
		add(0, b*4, sharePC)
		add(1, b*4, sharePC)
		for i := 0; i < 5; i++ { // single-use churn through the same set
			add(2, next*4, streamPC)
			next++
		}
	}
	cache.AnnotateNextUse(stream)
	run := func(p cache.Policy) uint64 {
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
	ship := run(newSHiP())
	ships := run(newSHiPS())
	if ships > ship {
		t.Errorf("SHiP-S misses %d > SHiP misses %d on shared-reuse workload", ships, ship)
	}
}

func TestSHiPSValidUnderFuzz(t *testing.T) {
	c, err := cache.NewSetAssoc(16*trace.BlockSize, 4, newSHiPS())
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(31)
	for i := 0; i < 20000; i++ {
		c.Access(cache.AccessInfo{
			Block: rnd.Uint64n(64),
			Core:  uint8(rnd.Intn(8)),
			PC:    0x400 + rnd.Uint64n(16)*4,
			Write: rnd.Bool(0.3),
		})
	}
	if got := resident(c); got > 16 {
		t.Errorf("%d resident blocks exceed capacity", got)
	}
}

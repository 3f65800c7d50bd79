// Package policy implements the LLC replacement policies studied by the
// paper: the LRU baseline, a catalogue of "recent proposals" from the
// 2008-2013 literature (NRU, LIP/BIP/DIP, SRRIP/BRRIP/DRRIP, SHiP), simple
// references (Random, FIFO) and the offline-optimal Belady OPT policy.
//
// Every policy implements cache.Policy. Policies whose eviction preference
// is a total order over a set's ways additionally expose it as
// VictimKeys(set, dst): dst[w] receives way w's key, a higher key is a
// better victim and equal keys prefer the lower way. The call is pure — it
// never ages or trains — and the sharing-aware protection wrapper in
// internal/core (which declares the interface, core.victimKeyer) uses it
// to skip protected blocks while otherwise honouring the base policy's
// ordering.
package policy

import (
	"fmt"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
)

// Factory constructs a fresh policy instance. Policies carry per-cache
// state, so each simulated cache needs its own instance; experiments pass
// factories around instead of instances.
type Factory func() cache.Policy

// catalogue returns the named policy factories in presentation order:
// baselines first, then the recent proposals, then OPT.
//
// Policies that flip coins (Random, BIP, BRRIP, DRRIP) are seeded from
// seed so that whole experiments stay deterministic.
func catalogue(seed uint64) []Factory {
	return []Factory{
		func() cache.Policy { return &cache.LRU{} },
		func() cache.Policy { return newRandom(rng.New(seed ^ 0x1)) },
		func() cache.Policy { return newFIFO() },
		func() cache.Policy { return newNRU() },
		func() cache.Policy { return newPLRU() },
		func() cache.Policy { return newLIP(static, nil) },
		func() cache.Policy { return newLIP(bimodal, rng.New(seed^0x2)) },
		func() cache.Policy { return newLIP(dueling, rng.New(seed^0x3)) },
		func() cache.Policy { return newRRIP(static, nil) },
		func() cache.Policy { return newRRIP(bimodal, rng.New(seed^0x4)) },
		func() cache.Policy { return newRRIP(dueling, rng.New(seed^0x5)) },
		func() cache.Policy { return newSHiP(false) },
		func() cache.Policy { return newSHiP(true) },
		func() cache.Policy { return newOPT() },
	}
}

// ByName returns a factory for the named policy, or an error listing the
// valid names. Names match Policy.Name values.
func ByName(name string, seed uint64) (Factory, error) {
	for _, f := range catalogue(seed) {
		if f().Name() == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names(seed))
}

// Names lists the catalogue policy names in order.
func Names(seed uint64) []string {
	var names []string
	for _, f := range catalogue(seed) {
		names = append(names, f().Name())
	}
	return names
}

// PerSet reports whether p's replacement decisions in one set depend only
// on the accesses to that set, so that a replay split by set index would
// give the same result. LRU, FIFO, NRU, PLRU, LIP, SRRIP and OPT
// qualify; policies with cross-set state — shared RNG draws (Random, BIP,
// BRRIP), set-dueling selectors (DIP, DRRIP) or global prediction tables
// (SHiP) — do not, and neither does any wrapper. sharing.ReplayMulti runs
// every lane as one stream-order pass either way; the bench module
// splits its lane probes by this property.
func PerSet(p cache.Policy) bool {
	switch q := p.(type) {
	case *cache.LRU, *fifo, *nru, *plru, *opt:
		return true
	case *lip:
		return q.mode == static
	case *rrip:
		return q.mode == static
	}
	return false
}

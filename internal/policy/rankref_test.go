package policy

import (
	"slices"
	"sort"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/rng"
)

// The protection wrapper used to ask a base policy for a full ranking of a
// set's ways (RankVictims, a stable sort by key) and walk it. Production
// code now scans the keys directly; this file keeps the sorted ranking as
// the reference the scan is checked against.

// victimKeyer mirrors core.victimKeyer (core imports nothing from here).
type victimKeyer interface {
	VictimKeys(set int, dst []int64)
}

// refRankVictims is the old ranking: way indices by descending key, ties
// by ascending way.
func refRankVictims(keys []int64) []int {
	rank := make([]int, len(keys))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(i, j int) bool {
		ki, kj := keys[rank[i]], keys[rank[j]]
		if ki != kj {
			return ki > kj
		}
		return rank[i] < rank[j]
	})
	return rank
}

// argmaxKey is the production selection rule with nothing protected: the
// best key, ties to the lower way.
func argmaxKey(keys []int64) int {
	best := 0
	for w, k := range keys {
		if k > keys[best] {
			best = w
		}
	}
	return best
}

// keyedCatalogue returns every catalogue policy that orders its victims;
// all but Random must.
func keyedCatalogue(t *testing.T, seed uint64) []cache.Policy {
	t.Helper()
	var keyed []cache.Policy
	for _, f := range catalogue(seed) {
		p := f()
		if _, ok := p.(victimKeyer); ok {
			keyed = append(keyed, p)
		} else if p.Name() != "random" {
			t.Errorf("%s exposes no VictimKeys", p.Name())
		}
	}
	return keyed
}

// TestRankVictimsIsPermutation checks, for every keyed policy, that the
// reference ranking built from VictimKeys is a permutation of the ways in
// (key descending, way ascending) order, and that VictimKeys is pure: it
// writes every entry and a second call returns the same keys.
func TestRankVictimsIsPermutation(t *testing.T) {
	for _, p := range keyedCatalogue(t, 3) {
		t.Run(p.Name(), func(t *testing.T) {
			const ways = 8
			c := newCache(t, p, ways)
			rnd := rng.New(5)
			for i := 0; i < 5000; i++ {
				c.Access(cache.AccessInfo{Block: rnd.Uint64n(256), PC: rnd.Uint64() & 0xFFFF})
			}
			for set := 0; set < 4; set++ {
				keys, again := make([]int64, ways), make([]int64, ways)
				for w := range again {
					keys[w], again[w] = -1<<63, 1<<63-1 // differ unless both are overwritten
				}
				p.(victimKeyer).VictimKeys(set, keys)
				p.(victimKeyer).VictimKeys(set, again)
				if !slices.Equal(keys, again) {
					t.Fatalf("set %d: VictimKeys not repeatable: %v then %v", set, keys, again)
				}
				rank := refRankVictims(keys)
				seen := make([]bool, ways)
				for i, w := range rank {
					if w < 0 || w >= ways || seen[w] {
						t.Fatalf("rank %v is not a permutation", rank)
					}
					seen[w] = true
					if i == 0 {
						continue
					}
					if prev := rank[i-1]; keys[prev] < keys[w] || keys[prev] == keys[w] && prev > w {
						t.Fatalf("rank %v out of order for keys %v", rank, keys)
					}
				}
			}
		})
	}
}

// TestRankVictimsHeadAgreesWithVictim checks, for every keyed policy at
// several associativities, that the best key with ties to the lower way —
// the head of the reference ranking — is the way Victim evicts.
func TestRankVictimsHeadAgreesWithVictim(t *testing.T) {
	for _, ways := range []int{4, 16, 64} {
		for _, p := range keyedCatalogue(t, 11) {
			c := newCache(t, p, ways)
			rnd := rng.New(9)
			keys := make([]int64, ways)
			for i := 0; i < 20000; i++ {
				c.Access(cache.AccessInfo{
					Block:   rnd.Uint64n(uint64(16 * ways)),
					PC:      rnd.Uint64() & 0xFFFF,
					Core:    uint8(rnd.Intn(4)),
					NextUse: int32(i) + int32(rnd.Intn(100)),
				})
				if i%97 != 0 {
					continue
				}
				set := rnd.Intn(4)
				p.(victimKeyer).VictimKeys(set, keys)
				head := argmaxKey(keys)
				if ref := refRankVictims(keys)[0]; head != ref {
					t.Fatalf("%s/%d set %d: argmax way %d != reference head %d (keys %v)", p.Name(), ways, set, head, ref, keys)
				}
				// Victim may age or train (RRIP, NRU, SHiP): call it last.
				if v := p.Victim(set, &cache.AccessInfo{}); head != v {
					t.Fatalf("%s/%d set %d: best key at way %d, Victim %d (keys %v)", p.Name(), ways, set, head, v, keys)
				}
			}
		}
	}
}

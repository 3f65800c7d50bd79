package reuse

import (
	"math/bits"
	"reflect"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/policy"
	"sharellc/internal/sharing"
	"sharellc/internal/workloads"
)

// An independent LRU census: the paper's residency classification of an
// LRU LLC, derived from stack distances alone. An LRU set of W ways hits
// an access iff fewer than W distinct blocks of that set were touched
// since the block's previous access, which is the access's stack
// distance within the set's own access sequence. Each miss opens a
// residency and every access to the block up to its next miss belongs to
// it, so a block's misses split its accesses into residencies, and the
// cores, stores and hits of each give the census. Nothing here shares
// code with the replay engine beyond cache.AccessInfo and this package's
// distance pass.

// censusBlockBytes is the LLC line size the reference assumes when it
// turns a capacity into a set count.
const censusBlockBytes = 64

// refResidency is one residency of the reference census.
type refResidency struct {
	block   uint64
	cores   uint64 // bit c: core c touched the block
	written bool
	hits    uint64
}

// censusDegrees is the widest degree a tracked Result's histograms
// hold; they have censusDegrees+1 entries, index 0 unused.
const censusDegrees = 128

// lruCensus returns the census of an LRU cache of size bytes and ways
// ways over stream.
func lruCensus(t *testing.T, stream []cache.AccessInfo, size, ways int) *sharing.Result {
	t.Helper()
	sets := size / censusBlockBytes / ways
	if sets < 1 || sets&(sets-1) != 0 || sets*ways*censusBlockBytes != size {
		t.Fatalf("reference: %d bytes over %d ways is no power-of-two set count", size, ways)
	}
	bySet := make([][]cache.AccessInfo, sets)
	for _, a := range stream {
		s := a.Block & uint64(sets-1)
		bySet[s] = append(bySet[s], a)
	}
	var hits uint64
	var done []*refResidency
	open := map[uint64]*refResidency{}
	for _, seq := range bySet {
		for i, d := range distances(seq) {
			a := seq[i]
			r := open[a.Block]
			if d < int64(ways) {
				r.hits++
				hits++
			} else {
				if r != nil {
					done = append(done, r)
				}
				r = &refResidency{block: a.Block}
				open[a.Block] = r
			}
			r.cores |= 1 << a.Core
			r.written = r.written || a.Write
		}
	}
	for _, r := range open {
		done = append(done, r)
	}

	n := uint64(len(stream))
	res := &sharing.Result{
		Accesses: n, Hits: hits, Misses: n - hits,
		DistinctBlocks:    uint64(len(open)),
		DegreeResidencies: make([]uint64, censusDegrees+1),
		DegreeHits:        make([]uint64, censusDegrees+1),
	}
	sharedBlocks := map[uint64]bool{}
	for _, r := range done {
		deg := bits.OnesCount64(r.cores)
		res.Residencies++
		res.DegreeResidencies[deg]++
		res.DegreeHits[deg] += r.hits
		if deg < 2 {
			res.PrivateHits += r.hits
			continue
		}
		sharedBlocks[r.block] = true
		res.SharedResidencies++
		res.SharedHits += r.hits
		if r.written {
			res.RWSharedResidencies++
			res.RWSharedHits += r.hits
		} else {
			res.ROSharedResidencies++
			res.ROSharedHits += r.hits
		}
	}
	res.DistinctSharedBlocks = uint64(len(sharedBlocks))
	return res
}

// tierFields keeps the fields of r that a replay at tier fills, zeroing
// the rest.
func tierFields(r *sharing.Result, tier sharing.Tier) *sharing.Result {
	switch tier {
	case sharing.CountsOnly:
		return &sharing.Result{Policy: r.Policy, Accesses: r.Accesses, Hits: r.Hits, Misses: r.Misses}
	case sharing.SharedHitsOnly:
		return &sharing.Result{Policy: r.Policy, Accesses: r.Accesses, Hits: r.Hits, Misses: r.Misses,
			SharedHits: r.SharedHits, PrivateHits: r.PrivateHits,
			Residencies: r.Residencies, SharedResidencies: r.SharedResidencies}
	}
	return r
}

// censusStreams builds small LLC streams of a few suite workloads: the
// generator filtered through the default private hierarchy.
func censusStreams(t *testing.T) map[string][]cache.AccessInfo {
	t.Helper()
	out := map[string][]cache.AccessInfo{}
	for _, name := range []string{"canneal", "streamcluster", "dedup", "x264"} {
		m, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Scaled(0.05).Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		stream, _, err := cache.FilterStream(r, cache.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cache.AnnotateNextUse(stream)
		out[name] = stream
	}
	return out
}

// TestStackDistanceCensusMatchesReplay holds every tier of an LRU
// replay, at four associativities from 4 to 128 ways, to the stack-
// distance census, field by field over what the tier fills. The four
// geometries are the lanes of one replay.
func TestStackDistanceCensusMatchesReplay(t *testing.T) {
	lru, err := policy.ByName("lru", 1)
	if err != nil {
		t.Fatal(err)
	}
	const size = 64 << 10
	ways := []int{4, 16, 64, 128}
	cfgs := make([]sharing.LLCConfig, len(ways))
	for i, w := range ways {
		cfgs[i] = sharing.LLCConfig{Size: size, Ways: w, NewPolicy: lru}
	}
	for name, stream := range censusStreams(t) {
		for _, tier := range []sharing.Tier{sharing.Tracked, sharing.SharedHitsOnly, sharing.CountsOnly} {
			got, err := sharing.ReplayMulti(stream, cfgs, sharing.Options{Tier: tier})
			if err != nil {
				t.Fatalf("%s, tier %d: %v", name, tier, err)
			}
			for i, w := range ways {
				want := lruCensus(t, stream, size, w)
				want.Policy = got[i].Policy
				if want = tierFields(want, tier); !reflect.DeepEqual(got[i], want) {
					t.Errorf("%s @ %d ways, tier %d: replay differs from the stack-distance census\nreplay: %+v\ncensus: %+v",
						name, w, tier, *got[i], *want)
				}
			}
		}
	}
}

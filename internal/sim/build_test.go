package sim

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/workloads"
)

// TestBuildStreamNumbersLikeAssignBlockIDs holds the build's numbering,
// a flat first-touch table over the model's dense block index, to the
// hash numbering of cache.AssignBlockIDs (and its NextUse chains to
// cache.AnnotateNextUse) on every suite model, at two scales.
func TestBuildStreamNumbersLikeAssignBlockIDs(t *testing.T) {
	machine := cache.DefaultConfig()
	for _, scale := range []float64{0.02, 0.05} {
		for _, m := range workloads.Suite() {
			st, err := BuildStream(scaleModel(m, scale), machine, 3)
			if err != nil {
				t.Fatal(err)
			}
			requireHashNumbering(t, fmt.Sprintf("%s at scale %v", m.Name, scale), st)
		}
	}
}

// TestBuildMixStreamNumbersLikeAssignBlockIDs holds M1's mix streams,
// numbered through workloads.MixBlockIndex, to the hash numbering.
func TestBuildMixStreamNumbersLikeAssignBlockIDs(t *testing.T) {
	for _, names := range m1Mixes {
		ms, err := ModelsByName(names)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ms {
			ms[i] = scaleModel(ms[i], 0.02)
		}
		st, err := buildMixStream(ms, cache.DefaultConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		requireHashNumbering(t, st.Model.Name, st)
	}
}

// requireHashNumbering fails t unless st's BlockIDs, NextUse chains and
// block count are what cache.AnnotateNextUse assigns its accesses.
func requireHashNumbering(t *testing.T, what string, st *Stream) {
	t.Helper()
	ref := slices.Clone(st.Accesses)
	for i := range ref {
		ref[i].BlockID, ref[i].NextUse = 0, cache.NoNextUse
	}
	if n := cache.AnnotateNextUse(ref); n != st.NumBlocks {
		t.Errorf("%s: NumBlocks %d, AssignBlockIDs %d", what, st.NumBlocks, n)
	}
	for i := range ref {
		if ref[i] != st.Accesses[i] {
			t.Fatalf("%s: access %d is %+v, the hash numbering's %+v", what, i, st.Accesses[i], ref[i])
		}
	}
}

// TestCoherenceCensusWithoutBuild holds C1's fallback to the build's
// census: a stream that carries none, as one decoded from a snapshot,
// regenerates its trace and drains the census tee over it, to the same
// counts; a cancelled context stops the drain.
func TestCoherenceCensusWithoutBuild(t *testing.T) {
	for _, name := range []string{"canneal", "swaptions", "streamcluster", "lu"} {
		m, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := BuildStream(m.Scaled(0.02), cache.DefaultConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.census == nil {
			t.Fatalf("%s: the build took no census", name)
		}
		built := *st.census
		if built.Loads+built.Stores != st.TraceLen || built.ColdFills == 0 || built.C2CTransfers == 0 {
			t.Errorf("%s: census %+v over a %d-reference trace", name, built, st.TraceLen)
		}
		bare := *st
		bare.census = nil
		got, err := bare.coherenceCensus(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != built {
			t.Errorf("%s: regenerated census %+v, the build's %+v", name, got, built)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := bare.coherenceCensus(ctx, 2); err != context.Canceled {
			t.Errorf("%s: cancelled census returned %v", name, err)
		}
	}
}

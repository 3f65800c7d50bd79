package workloads

import (
	"fmt"
	"testing"

	"sharellc/internal/rng"
	"sharellc/internal/trace"
)

// referenceGenerate is Model.Generate built from the per-reference
// generator (refThreadGen) as it was before batching and table sharing:
// every thread builds its own Zipf tables, and the interleaver reaches
// each thread through Next, one access per call.
func referenceGenerate(t *testing.T, m Model, seed uint64) trace.Reader {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	master := rng.New(seed ^ hashName(m.Name))
	streams := make([]trace.Reader, m.Threads)
	for i := range streams {
		g, err := newRefThreadGen(m, uint8(i), master.Split())
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = g
	}
	return trace.NewInterleaver(streams, m.Burst, master.Split())
}

// drainBy reads r to its end in chunks of the given sizes, cycling; size 0
// stands for one Next call.
func drainBy(r trace.Reader, pattern []int) []trace.Access {
	var out []trace.Access
	for i := 0; ; i++ {
		size := pattern[i%len(pattern)]
		if size == 0 {
			a, ok := r.Next()
			if !ok {
				return out
			}
			out = append(out, a)
			continue
		}
		buf := make([]trace.Access, size)
		n := trace.ReadBatch(r, buf)
		out = append(out, buf[:n]...)
		if n < size {
			return out
		}
	}
}

var drainPatterns = [][]int{{1}, {7}, {4096}, {0, 7, 0, 0, 33, 1}}

func requireSameTrace(t *testing.T, name string, got, want []trace.Access) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d accesses, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestGenerateBatchedMatchesReference covers every suite model at a small
// scale: the Next sequence equals the reference generator's, and every
// way of reading — by 1, 7 or 4096, or mixing Next with ReadBatch — yields
// that same sequence.
func TestGenerateBatchedMatchesReference(t *testing.T) {
	for _, m := range Suite() {
		m = m.Scaled(0.01)
		want, err := trace.Collect(referenceGenerate(t, m, 5))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != m.TotalAccesses() {
			t.Fatalf("%s: reference produced %d accesses, want %d", m.Name, len(want), m.TotalAccesses())
		}
		requireSameTrace(t, m.Name+" via Next", genAll(t, m, 5), want)
		for _, pattern := range drainPatterns {
			r, err := m.Generate(5)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTrace(t, fmt.Sprintf("%s read by %v", m.Name, pattern), drainBy(r, pattern), want)
		}
	}
}

// TestGenerateThreadEndsExactlyAtBurstEnd pins the schedule around thread
// death. With Burst 1 every burst is one access, so each thread runs dry
// exactly at a burst end: it must stay eligible until a later pick finds
// it empty, which consumes scheduling draws the batched reader has to
// take too.
func TestGenerateThreadEndsExactlyAtBurstEnd(t *testing.T) {
	m := tiny()
	m.Burst = 1
	m.AccessesPerThread = 257
	want, err := trace.Collect(referenceGenerate(t, m, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range drainPatterns {
		r, err := m.Generate(9)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTrace(t, fmt.Sprintf("read by %v", pattern), drainBy(r, pattern), want)
	}
}

// remapRef is the access-by-access remapping Mix used to wrap around each
// program's unpinned single-threaded trace.
type remapRef struct {
	inner trace.Reader
	slot  uint8
}

func (r remapRef) Next() (trace.Access, bool) {
	a, ok := r.inner.Next()
	if !ok {
		return trace.Access{}, false
	}
	a.Core = r.slot
	a.Addr += trace.Addr(uint64(r.slot) << (mixSlotShift + trace.BlockShift))
	return a, true
}

func (r remapRef) Err() error { return nil }

// TestMixBatchedMatchesReference: Mix, read any way, equals the old
// construction — reference generators, remapped per access.
func TestMixBatchedMatchesReference(t *testing.T) {
	ms := mixModels(t, 5)
	ms[2].AccessesPerThread = 48 * 3 // a slot much shorter than the others
	const seed = 3
	streams := make([]trace.Reader, len(ms))
	for slot, m := range ms {
		m.Threads = 1
		streams[slot] = remapRef{referenceGenerate(t, m, seed+uint64(slot)*1e6), uint8(slot)}
	}
	want, err := trace.Collect(trace.NewInterleaver(streams, 48, rng.New(seed^0xA11C).Split()))
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range append(drainPatterns, []int{0}) {
		r, err := Mix(ms, seed)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTrace(t, fmt.Sprintf("mix read by %v", pattern), drainBy(r, pattern), want)
	}
}

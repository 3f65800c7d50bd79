package mem

import "testing"

// poolProbe is an element type no other code pools, so the tests below
// own its free list.
type poolProbe struct{ a, b uint64 }

// resetProbeList empties poolProbe's free list.
func resetProbeList(t *testing.T) *freeList[poolProbe] {
	t.Helper()
	l := listOf[poolProbe]()
	l.mu.Lock()
	l.free = nil
	l.mu.Unlock()
	t.Cleanup(func() { l.free = nil })
	return l
}

// TestPoolAllocBestFit checks that Grab takes the smallest pooled array that
// holds the request, leaves the others, and makes a fresh array when
// none is large enough.
func TestPoolAllocBestFit(t *testing.T) {
	l := resetProbeList(t)
	for _, n := range []int{300, 100, 200} {
		Release(make([]poolProbe, n))
	}
	s := Grab[poolProbe](150)
	if len(s) != 150 || cap(s) != 200 {
		t.Fatalf("Grab(150) returned len %d cap %d, want len 150 from the 200-element array", len(s), cap(s))
	}
	if s := Grab[poolProbe](301); cap(s) != 301 {
		t.Errorf("Grab(301) with no array that large returned cap %d, want a fresh 301", cap(s))
	}
	if len(l.free) != 2 {
		t.Errorf("the list holds %d arrays, want the 100- and 300-element ones", len(l.free))
	}
	Release(s)
	if got := Grab[poolProbe](120); cap(got) != 200 {
		t.Errorf("a released array came back at cap %d, want its full 200", cap(got))
	}
	if s := Grab[poolProbe](0); len(s) != 0 || len(l.free) != 2 {
		t.Errorf("Grab(0) returned len %d and left %d arrays, want an empty slice and the pool untouched", len(s), len(l.free))
	}
}

// TestPoolAllocZeroes checks that a recycled array comes back zeroed over
// its whole requested length, whatever its last user left in it.
func TestPoolAllocZeroes(t *testing.T) {
	resetProbeList(t)
	s := Grab[poolProbe](64)
	for i := range s {
		s[i] = poolProbe{uint64(i) + 1, ^uint64(0)}
	}
	Release(s)
	got := Grab[poolProbe](48)
	if &got[0] != &s[0] {
		t.Fatal("Grab did not recycle the released array")
	}
	for i, v := range got {
		if v != (poolProbe{}) {
			t.Fatalf("recycled element %d is %+v, want zero", i, v)
		}
	}
}

// TestPoolAllocRetentionBound checks that a list keeps at most keep arrays:
// a release beyond that is dropped for the collector to reclaim.
func TestPoolAllocRetentionBound(t *testing.T) {
	l := resetProbeList(t)
	for range keep + 10 {
		Release(make([]poolProbe, 8))
	}
	if len(l.free) != keep {
		t.Errorf("the list retains %d arrays, want %d", len(l.free), keep)
	}
	Release([]poolProbe{}) // nothing to keep
	if len(l.free) != keep {
		t.Errorf("an empty release changed the list to %d arrays", len(l.free))
	}
}

// TestPoolBytesCountsRetainedArrays checks that PoolBytes counts a
// released array at its full capacity times its element size, and stops
// counting it once Grab hands it out again.
func TestPoolBytesCountsRetainedArrays(t *testing.T) {
	resetProbeList(t)
	before := PoolBytes()
	s := make([]poolProbe, 10, 40)
	Release(s)
	if got, want := PoolBytes()-before, 40*16; got != want {
		t.Errorf("after releasing a 40-element array of 16-byte elements the pool grew by %d bytes, want %d", got, want)
	}
	Grab[poolProbe](40)
	if got := PoolBytes() - before; got != 0 {
		t.Errorf("after grabbing the array back the pool still counts %d bytes", got)
	}
}

package lru

import (
	"slices"
	"testing"
)

// TestLRUEvictsLeastRecentlyUsed: past the budget the least recently
// used entry goes, a Get counts as a use and a Contains does not, and
// each eviction reaches the callback.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	var gone []string
	c := New(2, func(key string, v int) { gone = append(gone, key) })
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if v, ok := c.Get("a"); !ok || v != 1 { // touch a: b is now least recent
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if !c.Contains("b") { // no touch: b stays least recent
		t.Fatal("b missing")
	}
	c.Put("c", 3, 1)
	if c.Contains("b") || !c.Contains("a") || !c.Contains("c") {
		t.Errorf("after c: a %v b %v c %v, want a and c", c.Contains("a"), c.Contains("b"), c.Contains("c"))
	}
	if !slices.Equal(gone, []string{"b"}) || c.Len() != 2 || c.Cost() != 2 {
		t.Errorf("evicted %q, Len %d, Cost %d; want [b], 2, 2", gone, c.Len(), c.Cost())
	}
}

// TestLRUNeverEvictsNewest: an entry costlier than the whole budget
// evicts every other and stays; a re-put key replaces its value and
// cost in place.
func TestLRUNeverEvictsNewest(t *testing.T) {
	var gone []string
	c := New(10, func(key string, v string) { gone = append(gone, key) })
	c.Put("a", "x", 4)
	c.Put("b", "y", 4)
	c.Put("a", "z", 5) // replaces a's cost: 9, within budget
	if v, _ := c.Get("a"); v != "z" || c.Cost() != 9 || len(gone) != 0 {
		t.Fatalf("re-put: a = %q, Cost %d, evicted %q", v, c.Cost(), gone)
	}
	c.Put("big", "w", 50)
	if !slices.Equal(gone, []string{"b", "a"}) || c.Len() != 1 || !c.Contains("big") || c.Cost() != 50 {
		t.Errorf("evicted %q, Len %d, Cost %d; want [b a] and big alone at 50", gone, c.Len(), c.Cost())
	}

	unlimited := New[string, int](0, nil)
	for i, k := range []string{"a", "b", "c"} {
		unlimited.Put(k, i, 1<<40)
	}
	if unlimited.Len() != 3 {
		t.Errorf("an unlimited cache holds %d entries, want 3", unlimited.Len())
	}
}

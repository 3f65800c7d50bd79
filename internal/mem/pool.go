package mem

// Pooled arrays for the replay engine and its lanes.
//
// A sweep replays every workload once per (policy, geometry) lane, and
// every lane used to allocate the same few megabytes of state — the
// pass's residency columns, active tables and censuses, the policy's
// stamps or RRPVs, the protector's marks, a predictor lane's lines, the
// oracle's hint columns — only for the garbage collector to reclaim them
// moments later. The allocations themselves are cheap; what is not is
// everything riding on them: the page faults of touching fresh spans,
// re-collapsing those spans into huge pages (Hugepages) on every lane,
// and the heap growing to twice its live size between collections, which
// is what sets a sweep's peak RSS.
//
// The pool removes all three by recycling the arrays. It keeps one free
// list per element type; Grab takes the best fit by capacity, or makes a
// fresh huge-page-backed array on a miss, and Release hands an array
// back. A pooled array stays live, so the runtime's scavenger never
// returns its pages and never splits their huge pages, and Hugepages runs
// on misses only.
//
// Grab always returns a zeroed array, as make does: no caller relies on
// what a previous user left behind, and clearing a recycled array costs
// no more than the allocator's zeroing it replaces. An array goes back to
// the pool only on its user's success path — an aborted replay abandons
// its arrays mid-pass, and the pool never sees them — and a user that
// releases an array drops every reference to it. Nothing pooled escapes
// into a returned result. The pool retains at most keep arrays per
// element type, so its footprint tracks one sweep's working set (the
// suite's largest workload), not the sum of history.

import (
	"reflect"
	"sync"
	"unsafe"
)

// keep bounds the retained arrays per element type: enough for every
// concurrent lane of the widest sweep.
const keep = 64

// freeList is the pool of one element type.
type freeList[T any] struct {
	mu   sync.Mutex
	free [][]T // each at full capacity
}

// lists maps an element type to its *freeList.
var lists sync.Map

// retained is the part of every *freeList that PoolBytes reads without
// knowing its element type.
type retained interface{ bytes() int }

// bytes returns the bytes the list's arrays hold at full capacity.
func (l *freeList[T]) bytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.free {
		n += cap(s)
	}
	return n * int(unsafe.Sizeof(*new(T)))
}

// PoolBytes returns the bytes the pool retains, summed over the free
// lists of every element type: memory the process keeps for later
// Grabs, not memory in use.
func PoolBytes() int {
	n := 0
	lists.Range(func(_, l any) bool {
		n += l.(retained).bytes()
		return true
	})
	return n
}

// listOf returns T's free list.
func listOf[T any]() *freeList[T] {
	t := reflect.TypeFor[T]()
	if l, ok := lists.Load(t); ok {
		return l.(*freeList[T])
	}
	l, _ := lists.LoadOrStore(t, new(freeList[T]))
	return l.(*freeList[T])
}

// Grab returns a zeroed slice of length n: the pooled array of T with
// the smallest capacity that holds n, or a fresh huge-page-backed
// allocation on a miss.
func Grab[T any](n int) []T {
	if n == 0 {
		return []T{}
	}
	l := listOf[T]()
	l.mu.Lock()
	best := -1
	for i, s := range l.free {
		if cap(s) >= n && (best < 0 || cap(s) < cap(l.free[best])) {
			best = i
		}
	}
	var s []T
	if best >= 0 {
		last := len(l.free) - 1
		s = l.free[best][:n]
		l.free[best] = l.free[last]
		l.free[last] = nil
		l.free = l.free[:last]
	}
	l.mu.Unlock()
	if s == nil {
		s = make([]T, n)
		Hugepages(s)
		return s
	}
	clear(s)
	return s
}

// Release returns s to its type's pool, restored to full capacity so a
// later Grab sees everything the allocation can hold. The caller must
// hold no other reference to s's array, and must release it only once.
func Release[T any](s []T) {
	if cap(s) == 0 {
		return
	}
	l := listOf[T]()
	l.mu.Lock()
	if len(l.free) < keep {
		l.free = append(l.free, s[:cap(s)])
	}
	l.mu.Unlock()
}

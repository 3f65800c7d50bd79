// Package lru is the least-recently-used map behind the daemon's result
// cache and job ledger, the stream cache's memory and disk levels and
// the experiments' lane memo.
package lru

import "container/list"

// Cache maps keys to values in recency order. Every entry carries
// a cost; past the budget, Put evicts the least recently used entries,
// never the one it just put, and hands each to the eviction callback. A
// Cache is not safe for concurrent use: its owner guards it with its own
// lock.
type Cache[K comparable, V any] struct {
	budget  int64 // total cost kept; <= 0 is unlimited
	evicted func(key K, v V)
	ll      *list.List // front = most recently used; values *entry[K, V]
	items   map[K]*list.Element
	cost    int64
}

type entry[K comparable, V any] struct {
	key  K
	v    V
	cost int64
}

// New returns an empty Cache that keeps its total cost within budget
// (unlimited when budget <= 0) and calls evicted, when non-nil, with
// every entry it evicts.
func New[K comparable, V any](budget int64, evicted func(key K, v V)) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, evicted: evicted, ll: list.New(), items: map[K]*list.Element{}}
}

// Get returns key's value and marks the entry most recently used.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).v, true
}

// Contains reports whether key is present, leaving its recency as it is.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Put sets key's value and cost, marks the entry most recently used and
// evicts least recently used entries while the total cost exceeds the
// budget, so an entry costlier than the whole budget still stays until
// the next Put.
func (c *Cache[K, V]) Put(key K, v V, cost int64) {
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		c.cost += cost - e.cost
		e.v, e.cost = v, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, v: v, cost: cost})
		c.cost += cost
	}
	for c.budget > 0 && c.cost > c.budget && c.ll.Len() > 1 {
		e := c.ll.Remove(c.ll.Back()).(*entry[K, V])
		delete(c.items, e.key)
		c.cost -= e.cost
		if c.evicted != nil {
			c.evicted(e.key, e.v)
		}
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Cost returns the total cost of the entries.
func (c *Cache[K, V]) Cost() int64 { return c.cost }

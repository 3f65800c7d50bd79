// Package lru is the least-recently-used map behind the daemon's result
// cache and the stream cache's memory and disk levels.
package lru

import "container/list"

// Cache maps string keys to values in recency order. Every entry carries
// a cost; past the budget, Put evicts the least recently used entries,
// never the one it just put, and hands each to the eviction callback. A
// Cache is not safe for concurrent use: its owner guards it with its own
// lock.
type Cache[V any] struct {
	budget  int64 // total cost kept; <= 0 is unlimited
	evicted func(key string, v V)
	ll      *list.List // front = most recently used; values *entry[V]
	items   map[string]*list.Element
	cost    int64
}

type entry[V any] struct {
	key  string
	v    V
	cost int64
}

// New returns an empty Cache that keeps its total cost within budget
// (unlimited when budget <= 0) and calls evicted, when non-nil, with
// every entry it evicts.
func New[V any](budget int64, evicted func(key string, v V)) *Cache[V] {
	return &Cache[V]{budget: budget, evicted: evicted, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns key's value and marks the entry most recently used.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).v, true
}

// Contains reports whether key is present, leaving its recency as it is.
func (c *Cache[V]) Contains(key string) bool {
	_, ok := c.items[key]
	return ok
}

// Put sets key's value and cost, marks the entry most recently used and
// evicts least recently used entries while the total cost exceeds the
// budget, so an entry costlier than the whole budget still stays until
// the next Put.
func (c *Cache[V]) Put(key string, v V, cost int64) {
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[V])
		c.cost += cost - e.cost
		e.v, e.cost = v, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[V]{key: key, v: v, cost: cost})
		c.cost += cost
	}
	for c.budget > 0 && c.cost > c.budget && c.ll.Len() > 1 {
		e := c.ll.Remove(c.ll.Back()).(*entry[V])
		delete(c.items, e.key)
		c.cost -= e.cost
		if c.evicted != nil {
			c.evicted(e.key, e.v)
		}
	}
}

// Len returns the number of entries.
func (c *Cache[V]) Len() int { return c.ll.Len() }

// Cost returns the total cost of the entries.
func (c *Cache[V]) Cost() int64 { return c.cost }

package server

import (
	"container/list"
	"fmt"
	"sync"
)

// resultCache is the LRU cache for finished query results. Keys
// identify a query exactly — suite, feature mask, cluster count,
// target and seed — so a hit can replay the stored response bytes
// verbatim. A value is a body's segments, written in order; segments
// may be shared with stage artifacts (an Eval's encoding), so an entry
// costs little beyond its references. Segments are immutable encoded
// JSON, which makes sharing them across goroutines trivially safe.
//
// (internal/cache simulates hardware data caches; this one caches
// answers. They share nothing but the name.)
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used; guarded by mu
	items map[string]*list.Element // guarded by mu

	hits   int64 // guarded by mu
	misses int64 // guarded by mu
}

type cacheEntry struct {
	key string
	val [][]byte
}

// newResultCache builds a cache holding at most capacity entries.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// resultKey builds the canonical cache key. target is "*" for queries
// spanning all targets (select, evaluate-all).
func resultKey(kind, suite, mask string, k int, target string, seed uint64) string {
	return fmt.Sprintf("%s|%s|%s|%d|%s|%d", kind, suite, mask, k, target, seed)
}

// Get returns the cached value and marks it most recently used.
func (c *resultCache) Get(key string) ([][]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put inserts or refreshes a value, evicting the least recently used
// entry when over capacity.
func (c *resultCache) Put(key string, val [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// Len returns the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns hit/miss counters and the current size.
func (c *resultCache) Stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

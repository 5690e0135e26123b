package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// segs splits a body into one segment per argument, the shape answer
// caches.
func segs(parts ...string) [][]byte {
	out := make([][]byte, len(parts))
	for i, p := range parts {
		out[i] = []byte(p)
	}
	return out
}

// joined is the body a cached value writes.
func joined(v [][]byte) string { return string(bytes.Join(v, nil)) }

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", segs("1"))
	c.Put("b", segs("2", "0"))
	// Touch a so b becomes the eviction victim.
	if v, ok := c.Get("a"); !ok || joined(v) != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	c.Put("c", segs("3"))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction, want LRU drop")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted although recently used")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestResultCacheUpdateInPlace(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", segs("old"))
	c.Put("a", segs("n", "e", "w"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); joined(v) != "new" {
		t.Errorf("Get(a) = %q, want new", v)
	}
}

// TestResultCacheSharesSegments pins that an entry references the
// segments it was given instead of copying them: a cached evaluate
// body points at the Evals' own encodings.
func TestResultCacheSharesSegments(t *testing.T) {
	c := newResultCache(1)
	shared := []byte(`{"target":"x"}`)
	c.Put("a", [][]byte{[]byte("["), shared, []byte("]")})
	v, ok := c.Get("a")
	if !ok || len(v) != 3 {
		t.Fatalf("Get(a) = %q, %v, want three segments", v, ok)
	}
	if &v[1][0] != &shared[0] {
		t.Error("cached segment is a copy, want the bytes it was given")
	}
}

func TestResultCacheStats(t *testing.T) {
	c := newResultCache(4)
	c.Put("a", segs("1"))
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	hits, misses, size := c.Stats()
	if hits != 2 || misses != 1 || size != 1 {
		t.Errorf("Stats = %d/%d/%d, want 2/1/1", hits, misses, size)
	}
}

// TestResultCacheConcurrent hammers the cache from many goroutines;
// meaningful only under -race, where any unsynchronized access fails.
func TestResultCacheConcurrent(t *testing.T) {
	c := newResultCache(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%16)
				if i%3 == 0 {
					c.Put(key, segs(key[:1], key[1:]))
				} else if v, ok := c.Get(key); ok && joined(v) != key {
					t.Errorf("Get(%s) = %q", key, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestResultKeyDistinguishesQueries(t *testing.T) {
	base := resultKey("select", "nas", "1010", 4, "*", 1)
	for _, other := range []string{
		resultKey("subset", "nas", "1010", 4, "*", 1),
		resultKey("select", "nr", "1010", 4, "*", 1),
		resultKey("select", "nas", "1110", 4, "*", 1),
		resultKey("select", "nas", "1010", 5, "*", 1),
		resultKey("select", "nas", "1010", 4, "Atom", 1),
		resultKey("select", "nas", "1010", 4, "*", 2),
	} {
		if other == base {
			t.Errorf("key collision: %s", other)
		}
	}
}

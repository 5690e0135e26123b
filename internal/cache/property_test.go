package cache

import (
	"testing"
	"testing/quick"

	"fgbs/internal/arch"
	"fgbs/internal/rng"
)

// Property: after any access, the line is cached at every level it
// traversed; an immediate re-access hits L1.
func TestAccessThenHit(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		m := arch.All()[int(seed%4)]
		h, err := NewHierarchy(m)
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			addr := r.Int63n(m.LastLevelSize() * 8)
			h.Access(addr, r.Bool(0.3))
			if !h.Levels[0].Contains(addr) {
				return false
			}
			if lvl := h.Access(addr, false); lvl != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: the number of memory accesses never exceeds the number of
// last-level misses plus write-back traffic at the last level.
func TestMemoryTrafficBounded(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		m := arch.All()[int(seed%4)]
		h, err := NewHierarchy(m)
		if err != nil {
			return false
		}
		const n = 5000
		for i := 0; i < n; i++ {
			h.Access(r.Int63n(m.LastLevelSize()*4), r.Bool(0.4))
		}
		last := h.Levels[len(h.Levels)-1]
		// Every DRAM fill corresponds to a miss at the last level.
		return h.MemAccesses(0) <= last.Misses
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: a working set no larger than a level is fully retained by
// a second sequential pass (no capacity misses at that level), for
// every machine's last level.
func TestResidencyProperty(t *testing.T) {
	for _, m := range arch.All() {
		h, err := NewHierarchy(m)
		if err != nil {
			t.Fatal(err)
		}
		ws := m.LastLevelSize() / 2
		for a := int64(0); a < ws; a += 64 {
			h.Access(a, false)
		}
		before := h.MemAccesses(0)
		for a := int64(0); a < ws; a += 64 {
			h.Access(a, false)
		}
		if h.MemAccesses(0) != before {
			t.Errorf("%s: %d DRAM accesses on a resident second pass", m.Name, h.MemAccesses(0)-before)
		}
	}
}

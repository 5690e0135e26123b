package cache

import (
	"reflect"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/rng"
)

func smallLevel(t *testing.T, sizeBytes int64, ways int) *Level {
	t.Helper()
	l, err := NewLevel(arch.CacheLevel{Name: "T", SizeBytes: sizeBytes, Ways: ways, LineBytes: 64, LatencyCycles: 1})
	if err != nil {
		t.Fatalf("NewLevel: %v", err)
	}
	return l
}

func TestLevelHitAfterMiss(t *testing.T) {
	l := smallLevel(t, 1024, 2) // 8 sets x 2 ways
	if hit, _ := l.Access(0, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := l.Access(0, false); !hit {
		t.Fatal("second access missed")
	}
	if hit, _ := l.Access(32, false); !hit {
		t.Fatal("same-line access missed")
	}
	if l.Hits != 2 || l.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", l.Hits, l.Misses)
	}
}

func TestLevelLRUEviction(t *testing.T) {
	l := smallLevel(t, 1024, 2) // 8 sets, set stride = 64, wrap at 512B
	// Three lines mapping to set 0: addresses 0, 512, 1024.
	l.Access(0, false)
	l.Access(512, false)
	l.Access(0, false)    // refresh line 0, so 512 is LRU
	l.Access(1024, false) // evicts 512
	if !l.Contains(0) {
		t.Error("line 0 evicted although most recently used")
	}
	if l.Contains(512) {
		t.Error("LRU line 512 not evicted")
	}
	if !l.Contains(1024) {
		t.Error("new line not cached")
	}
}

func TestLevelDirtyEviction(t *testing.T) {
	l := smallLevel(t, 1024, 2)
	l.Access(0, true) // dirty
	l.Access(512, false)
	_, dirtyEvict := l.Access(1024, false) // evicts line 0 (LRU, dirty)
	if !dirtyEvict {
		t.Error("dirty eviction not reported")
	}
	if l.Writebacks != 1 {
		t.Errorf("writebacks = %d", l.Writebacks)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	l := smallLevel(t, 1024, 2)
	l.Access(0, false)
	h0, m0 := l.Hits, l.Misses
	if l.Contains(4096) {
		t.Error("Contains invented a line")
	}
	if l.Hits != h0 || l.Misses != m0 {
		t.Error("Contains changed counters")
	}
}

func TestFlushEmpties(t *testing.T) {
	l := smallLevel(t, 1024, 2)
	l.Access(0, true)
	l.Flush()
	if l.Contains(0) {
		t.Error("line survived flush")
	}
	if hit, _ := l.Access(0, false); hit {
		t.Error("hit after flush")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set equal to the cache size, accessed twice
	// sequentially, must miss only on the first pass (LRU,
	// fully-covered set mapping).
	l := smallLevel(t, 4096, 4)
	var miss int64
	for pass := 0; pass < 2; pass++ {
		for a := int64(0); a < 4096; a += 64 {
			if hit, _ := l.Access(a, false); !hit && pass == 1 {
				miss++
			}
		}
	}
	if miss != 0 {
		t.Errorf("%d second-pass misses for resident working set", miss)
	}
}

func TestStreamingAlwaysMisses(t *testing.T) {
	// A working set 8x the cache, streamed twice, misses on every new
	// line both times.
	l := smallLevel(t, 1024, 2)
	total := int64(8 * 1024)
	for pass := 0; pass < 2; pass++ {
		before := l.Misses
		for a := int64(0); a < total; a += 64 {
			l.Access(a, false)
		}
		got := l.Misses - before
		if want := total / 64; got != want {
			t.Errorf("pass %d: misses = %d, want %d", pass, got, want)
		}
	}
}

func newHier(t *testing.T, m *arch.Machine) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(m)
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	return h
}

func TestHierarchyLevels(t *testing.T) {
	h := newHier(t, arch.Nehalem())
	if len(h.Levels) != 3 {
		t.Fatalf("Nehalem levels = %d", len(h.Levels))
	}
	// First touch goes to memory.
	if lvl := h.Access(0, false); lvl != 3 {
		t.Errorf("cold access level = %d, want 3 (memory)", lvl)
	}
	// Second touch hits L1.
	if lvl := h.Access(0, false); lvl != 0 {
		t.Errorf("warm access level = %d, want 0", lvl)
	}
	if h.MemAccesses(0) != 1 {
		t.Errorf("MemAccesses = %d", h.MemAccesses(0))
	}
}

func TestHierarchyL2Resident(t *testing.T) {
	// Working set bigger than L1 but within L2 should, on a second
	// pass, hit mostly in L2.
	m := arch.Nehalem()
	h := newHier(t, m)
	ws := m.Caches[1].SizeBytes / 2
	for a := int64(0); a < ws; a += 64 {
		h.Access(a, false)
	}
	l2Before := h.Levels[1].Hits
	memBefore := h.MemAccesses(0)
	for a := int64(0); a < ws; a += 64 {
		h.Access(a, false)
	}
	if h.MemAccesses(0) != memBefore {
		t.Errorf("second pass went to memory %d times", h.MemAccesses(0)-memBefore)
	}
	if h.Levels[1].Hits == l2Before {
		t.Error("no L2 hits on second pass over L2-resident set")
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := newHier(t, arch.Atom())
	h.Access(128, true)
	h.Flush()
	if lvl := h.Access(128, false); lvl != len(h.Levels) {
		t.Errorf("post-flush access level = %d, want memory", lvl)
	}
}

func TestPreloadWarmsCache(t *testing.T) {
	m := arch.Atom()
	h := newHier(t, m)
	size := m.Caches[1].SizeBytes / 2
	h.Preload(0, size)
	h.ResetCounters()
	miss := 0
	for a := int64(0); a < size; a += 64 {
		if h.Access(a, false) >= len(h.Levels) {
			miss++
		}
	}
	if miss != 0 {
		t.Errorf("%d memory accesses after preload of resident set", miss)
	}
}

func TestResetCountersKeepsContents(t *testing.T) {
	h := newHier(t, arch.Core2())
	h.Access(0, false)
	h.ResetCounters()
	if h.Levels[0].Hits != 0 || h.Levels[0].Misses != 0 {
		t.Error("counters not reset")
	}
	if lvl := h.Access(0, false); lvl != 0 {
		t.Error("contents lost on counter reset")
	}
}

func TestAppendAndHasState(t *testing.T) {
	h := newHier(t, arch.Atom())
	lines := 0
	for _, cl := range arch.Atom().Caches {
		lines += int(cl.SizeBytes / cl.LineBytes)
	}
	empty := h.AppendState([]int64{7})
	if len(empty) != 1+lines || empty[0] != 7 {
		t.Fatalf("AppendState kept dst[0] = %d and returned %d words, want 7 and %d", empty[0], len(empty), 1+lines)
	}
	read, dirty := newHier(t, arch.Atom()), newHier(t, arch.Atom())
	read.Access(128, false)
	dirty.Access(128, true)
	rs, ds := read.AppendState(nil), dirty.AppendState(nil)
	if reflect.DeepEqual(rs, empty[1:]) || reflect.DeepEqual(rs, ds) {
		t.Fatal("state ignores a resident line or its dirty bit")
	}
	read.ResetCounters()
	if !reflect.DeepEqual(read.AppendState(nil), rs) || !read.HasState(rs) {
		t.Fatal("state includes counters")
	}
	if read.HasState(ds) || dirty.HasState(rs) || read.HasState(rs[1:]) || read.HasState(append(rs, -1)) {
		t.Fatal("HasState accepts a different state")
	}
	read.Flush()
	if !reflect.DeepEqual(read.AppendState(nil), empty[1:]) || !read.HasState(empty[1:]) {
		t.Fatal("flushed state differs from a new hierarchy's")
	}
}

func TestAllMachinesBuildHierarchies(t *testing.T) {
	for _, m := range arch.All() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
		if _, err := NewHierarchy(m); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestBadGeometryRejected(t *testing.T) {
	_, err := NewLevel(arch.CacheLevel{Name: "bad", SizeBytes: 1000, Ways: 3, LineBytes: 48})
	if err == nil {
		t.Error("non-power-of-two line size accepted")
	}
	_, err = NewLevel(arch.CacheLevel{Name: "bad", SizeBytes: 3 * 64 * 5, Ways: 5, LineBytes: 64})
	if err == nil {
		t.Error("non-power-of-two set count accepted")
	}
}

// Property: hits + misses == total accesses, for random access streams
// on every machine.
func TestCounterConservation(t *testing.T) {
	r := rng.New(41)
	for _, m := range arch.All() {
		h := newHier(t, m)
		const n = 20000
		span := m.LastLevelSize() * 4
		for i := 0; i < n; i++ {
			h.Access(r.Int63n(span), r.Bool(0.3))
		}
		l1 := h.Levels[0]
		if l1.Hits+l1.Misses < n {
			t.Errorf("%s: L1 hits+misses = %d < %d accesses", m.Name, l1.Hits+l1.Misses, n)
		}
		// Every L1 miss must be accounted for downstream: hits at
		// deeper levels plus memory accesses, modulo write-back
		// traffic which adds accesses (never removes).
		deeper := h.MemAccesses(0)
		for _, l := range h.Levels[1:] {
			deeper += l.Hits
		}
		if deeper < l1.Misses {
			t.Errorf("%s: downstream accounted %d < L1 misses %d", m.Name, deeper, l1.Misses)
		}
	}
}

// Property: identical access streams produce identical counters
// (determinism).
func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		h := newHier(t, arch.SandyBridge())
		r := rng.New(7)
		for i := 0; i < 50000; i++ {
			h.Access(r.Int63n(1<<22), r.Bool(0.25))
		}
		return h.Levels[0].Misses, h.Levels[len(h.Levels)-1].Misses, h.MemAccesses(0)
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Error("cache simulation not deterministic")
	}
}

// A hierarchy shared by machines gives each machine exactly what its
// own hierarchy gives: the serving level of every access, every
// counter of its levels, its DRAM traffic and its levels' contents.
func TestSharedHierarchyMatchesOwn(t *testing.T) {
	prefix := arch.Nehalem()
	prefix.Name = "Nehalem L1-L2"
	prefix.Caches = prefix.Caches[:2]
	tiny := func(name string, l2Ways int) *arch.Machine {
		return smallMachine(name, 64, [3]int{2, l2Ways, 4})
	}
	groups := [][]*arch.Machine{
		{arch.Nehalem(), arch.Core2(), arch.SandyBridge()},
		{arch.SandyBridge(), prefix, arch.Nehalem(), arch.NehalemNoVec()},
		{arch.Core2(), arch.Core2()},
		{arch.Atom()},
		{tiny("a", 1), tiny("b", 2), tiny("c", 1)},
	}
	for g, ms := range groups {
		shared, err := NewHierarchy(ms...)
		if err != nil {
			t.Fatal(err)
		}
		var own []*Hierarchy
		for _, m := range ms {
			own = append(own, newHier(t, m))
		}
		r := rng.New(uint64(g) + 1)
		span := ms[0].LastLevelSize() * 4
		const steps = 30000
		for step := 0; step < steps; step++ {
			switch k := r.Intn(1000); {
			case k < 2:
				shared.Flush()
				for _, h := range own {
					h.Flush()
				}
			case k < 4:
				shared.ResetCounters()
				for _, h := range own {
					h.ResetCounters()
				}
			case k < 5:
				base, size := r.Int63n(span), r.Int63n(span/8)+1
				shared.Preload(base, size)
				for _, h := range own {
					h.Preload(base, size)
				}
			default:
				addr, write := r.Int63n(span), r.Bool(0.3)
				if k < 500 {
					addr = int64(step*8) % span
				}
				first := shared.Access(addr, write)
				for i, h := range own {
					if got, want := shared.Served(i), h.Access(addr, write); got != want || i == 0 && first != want {
						t.Fatalf("group %d step %d: %s served at %d (Access %d), want %d", g, step, ms[i].Name, got, first, want)
					}
				}
			}
			for i, h := range own {
				if shared.MemAccesses(i) != h.MemAccesses(0) || shared.MemWritebacks(i) != h.MemWritebacks(0) {
					t.Fatalf("group %d step %d: %s memory accesses/writebacks = %d/%d, want %d/%d", g, step, ms[i].Name,
						shared.MemAccesses(i), shared.MemWritebacks(i), h.MemAccesses(0), h.MemWritebacks(0))
				}
				for j, l := range shared.MachineLevels(i) {
					w := h.Levels[j]
					contents := step%1000 == 0 || step == steps-1
					if l.Hits != w.Hits || l.Misses != w.Misses || l.Writebacks != w.Writebacks || contents && !reflect.DeepEqual(l.words, w.words) {
						t.Fatalf("group %d step %d: %s %s differs from its own hierarchy's", g, step, ms[i].Name, w.Name())
					}
				}
			}
		}
	}
	if _, err := NewHierarchy(arch.Nehalem(), arch.Atom()); err == nil {
		t.Error("machines with different L1s share a hierarchy")
	}
	if h := newHier(t, arch.Nehalem()); len(h.Levels) != 3 {
		t.Errorf("one machine's hierarchy has %d levels, want its 3", len(h.Levels))
	}
	if h, _ := NewHierarchy(arch.Nehalem(), arch.SandyBridge(), arch.Core2()); len(h.Levels) != 5 {
		t.Errorf("Nehalem, Sandy Bridge and Core 2 share %d levels, want 5 (L1, L2, two L3s, Core 2's L2)", len(h.Levels))
	}
}

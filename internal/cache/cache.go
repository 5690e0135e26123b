// Package cache implements the set-associative LRU data-cache
// hierarchy simulator used by internal/sim.
//
// The paper characterizes codelets with hardware counters (cache
// misses, bandwidths) read by Likwid on real machines. Here the same
// counters are produced by pushing the codelet's memory access stream
// through this simulator configured with each machine's geometry from
// internal/arch.
//
// The model is a single-threaded, write-allocate, write-back hierarchy
// with true-LRU replacement per set — simple, deterministic and
// sufficient for the capacity/locality distinctions the method relies
// on (L1-resident vs. streaming vs. LLC-resident working sets). It is
// not inclusive: a level's eviction never invalidates another level's
// line, so machines whose levels from L1 down have equal geometry can
// share those levels (see Hierarchy). Each set is a run of packed
// line<<1|dirty words in most-recently-used-first order: a lookup is
// one scan and the victim is the tail word.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"fgbs/internal/arch"
)

// Level is one simulated cache level.
type Level struct {
	ways      int
	lineShift uint
	setMask   int64

	// words holds each set as ways consecutive words, most recently
	// used first: line<<1 | dirty, or -1 for an empty way. Empty ways
	// sit at the tail, so the tail word is always the victim.
	words []int64

	Hits   int64
	Misses int64
	// Writebacks counts dirty evictions (write-back traffic).
	Writebacks int64

	// The Hierarchy that owns the level counts the misses and dirty
	// evictions its write-back touches caused (see Hierarchy.Access),
	// which are not DRAM traffic, and stamps the level with the tick
	// of the last access that hit it.
	touchMisses, touchWritebacks int64
	hitTick                      uint64

	spec arch.CacheLevel
}

// NewLevel builds a level from arch geometry.
func NewLevel(cl arch.CacheLevel) (*Level, error) {
	if cl.LineBytes <= 0 || cl.LineBytes&(cl.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cl.Name, cl.LineBytes)
	}
	lines := cl.SizeBytes / cl.LineBytes
	if lines%int64(cl.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", cl.Name, lines, cl.Ways)
	}
	sets := lines / int64(cl.Ways)
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cl.Name, sets)
	}
	l := &Level{
		spec:      cl,
		ways:      cl.Ways,
		lineShift: uint(bits.TrailingZeros64(uint64(cl.LineBytes))),
		setMask:   sets - 1,
		words:     make([]int64, lines),
	}
	l.Flush()
	return l, nil
}

// Name returns the level's name (L1, L2, ...).
func (l *Level) Name() string { return l.spec.Name }

// set returns the ways of the set (non-negative) addr maps to, and
// addr's line.
func (l *Level) set(addr int64) ([]int64, int64) {
	line := addr >> l.lineShift
	base := int(line&l.setMask) * l.ways
	return l.words[base : base+l.ways : base+l.ways], line
}

// Access looks address up in the level; on a miss the line is filled
// (write-allocate) and the victim reported. Returns hit and whether a
// dirty line was evicted. A hit moves the line to the front of its
// set; a miss evicts the tail and inserts the line at the front.
func (l *Level) Access(addr int64, write bool) (hit, dirtyEvict bool) {
	set, line := l.set(addr)
	var dirty int64
	if write {
		dirty = 1
	}
	for w, word := range set {
		if word>>1 == line {
			l.Hits++
			copy(set[1:w+1], set[:w])
			set[0] = word | dirty
			return true, false
		}
	}
	l.Misses++
	victim := set[len(set)-1]
	dirtyEvict = victim >= 0 && victim&1 != 0
	if dirtyEvict {
		l.Writebacks++
	}
	copy(set[1:], set)
	set[0] = line<<1 | dirty
	return false, dirtyEvict
}

// Contains reports whether the line holding addr is currently cached,
// without touching hit/miss counters or LRU state.
func (l *Level) Contains(addr int64) bool {
	set, line := l.set(addr)
	for _, word := range set {
		if word>>1 == line {
			return true
		}
	}
	return false
}

// Flush invalidates all lines and clears dirtiness; counters are kept.
func (l *Level) Flush() {
	for i := range l.words {
		l.words[i] = -1
	}
}

// ResetCounters zeroes hit/miss/writeback counters without touching
// cache contents.
func (l *Level) ResetCounters() {
	l.Hits, l.Misses, l.Writebacks = 0, 0, 0
	l.touchMisses, l.touchWritebacks = 0, 0
}

// Hierarchy simulates the cache hierarchies of one or more machines
// that share an L1 geometry, as one tree of levels. A level is shared
// by every machine whose levels from L1 down to it have equal
// geometry (size, ways, line size): fills happen on demand only and
// no eviction reaches another level's contents, so a level's state
// and counters depend only on its geometry and on the accesses that
// reach it, and those are equal for every such machine. For one
// machine the tree is its chain of levels.
type Hierarchy struct {
	// Levels lists every distinct level in depth-first order, L1
	// first. Machine 0's levels come first, in order; for one machine
	// they are all of them.
	Levels    []*Level
	lineBytes int64

	// Indexed like Levels: the indices of the levels right below
	// each, and the index past its subtree.
	children [][]int
	skip     []int
	tick     uint64 // counts the accesses that missed L1
	l1Hit    bool   // the last access hit L1

	machines [][]*Level // each machine's levels, L1 first
}

// NewHierarchy builds the hierarchy of machines ms, which must all
// have the same L1 geometry. Machine i is the i-th of ms; a machine
// may be listed more than once.
func NewHierarchy(ms ...*arch.Machine) (*Hierarchy, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("cache: no machine given")
	}
	all := make([]int, len(ms))
	for i, m := range ms {
		if len(m.Caches) == 0 {
			return nil, fmt.Errorf("cache: machine %s has no cache levels", m.Name)
		}
		if !m.Caches[0].SameGeometry(ms[0].Caches[0]) {
			return nil, fmt.Errorf("cache: machine %s: L1 geometry differs from machine %s's", m.Name, ms[0].Name)
		}
		all[i] = i
	}
	h := &Hierarchy{
		lineBytes: ms[0].Caches[0].LineBytes,
		machines:  make([][]*Level, len(ms)),
	}
	if err := h.grow(ms, all, 0); err != nil {
		return nil, err
	}
	return h, nil
}

// grow appends the level at depth d that machines ms[i], i in members,
// share, then the levels below it, depth first.
func (h *Hierarchy) grow(ms []*arch.Machine, members []int, d int) error {
	first := ms[members[0]]
	l, err := NewLevel(first.Caches[d])
	if err != nil {
		return fmt.Errorf("cache: machine %s: %w", first.Name, err)
	}
	at := len(h.Levels)
	h.Levels = append(h.Levels, l)
	h.children = append(h.children, nil)
	h.skip = append(h.skip, 0)
	var below []int
	for _, i := range members {
		h.machines[i] = append(h.machines[i], l)
		if d+1 < len(ms[i].Caches) {
			below = append(below, i)
		}
	}
	next := make([]arch.CacheLevel, len(below))
	for j, i := range below {
		next[j] = ms[i].Caches[d+1]
	}
	for _, group := range arch.GroupByGeometry(next) {
		for j := range group {
			group[j] = below[group[j]]
		}
		h.children[at] = append(h.children[at], len(h.Levels))
		if err := h.grow(ms, group, d+1); err != nil {
			return err
		}
	}
	h.skip[at] = len(h.Levels)
	return nil
}

// LineBytes returns the L1 line size.
func (h *Hierarchy) LineBytes() int64 { return h.lineBytes }

// MachineLevels returns machine i's levels, L1 first. Machines share
// the levels they have in common.
func (h *Hierarchy) MachineLevels(i int) []*Level { return h.machines[i] }

// MemAccesses returns how many of machine i's line fills reached
// DRAM: the demand misses of its last level.
func (h *Hierarchy) MemAccesses(i int) int64 {
	last := h.machines[i][len(h.machines[i])-1]
	return last.Misses - last.touchMisses
}

// MemWritebacks returns how many of machine i's dirty lines were
// written back to DRAM: the dirty demand evictions of its last level.
func (h *Hierarchy) MemWritebacks(i int) int64 {
	last := h.machines[i][len(h.machines[i])-1]
	return last.Writebacks - last.touchWritebacks
}

// Served returns the index of machine i's level that served the last
// access (0 = L1), or its level count if the access went to memory.
func (h *Hierarchy) Served(i int) int {
	if h.l1Hit {
		return 0
	}
	for k, l := range h.machines[i] {
		if l.hitTick == h.tick {
			return k
		}
	}
	return len(h.machines[i])
}

// Access sends one reference down the hierarchy and returns the index
// of the level that served it on machine 0 (see Served for the
// others). L1 is shared, so 0 means every machine hit L1.
//
// A miss in a level is looked up in each level below it; fills
// propagate back up (every level on the path allocates the line).
// Dirty victims are written back to each level below — with a known
// quirk, kept because fixing it moves every profile byte (see
// DESIGN.md): the write-back passes the demand addr, not the victim's
// line, so it fills the demand line one level down, the demand lookup
// then hits there, and DRAM fills undercount store streams.
//
// Levels are visited depth first, skipping the subtree of every level
// that hit, so a level is looked up exactly when every level above it
// missed. Machine 0's levels are the first ones visited.
func (h *Hierarchy) Access(addr int64, write bool) int {
	hit, dirtyEvict := h.Levels[0].Access(addr, write)
	if h.l1Hit = hit; hit {
		return 0
	}
	h.tick++
	served := len(h.machines[0])
	for i := 0; ; {
		if dirtyEvict {
			h.touch(i, addr)
		}
		next := i + 1
		if hit {
			h.Levels[i].hitTick = h.tick
			served = min(served, i)
			next = h.skip[i]
		}
		if next == len(h.Levels) {
			return served
		}
		i = next
		hit, dirtyEvict = h.Levels[i].Access(addr, write)
	}
}

// touch writes the dirty victim of Levels[i] back to each level right
// below it: a write of the demand addr (see Access), whose own
// eviction is not propagated.
func (h *Hierarchy) touch(i int, addr int64) {
	for _, c := range h.children[i] {
		l := h.Levels[c]
		hit, dirtyEvict := l.Access(addr, true)
		if !hit {
			l.touchMisses++
		}
		if dirtyEvict {
			l.touchWritebacks++
		}
	}
}

// AppendState appends every level's packed set words, dirty bits
// included, to dst and returns the extended slice. Two hierarchies of
// one geometry with equal states answer every access sequence with
// equal counters; counters themselves are not part of the state.
func (h *Hierarchy) AppendState(dst []int64) []int64 {
	n := 0
	for _, l := range h.Levels {
		n += len(l.words)
	}
	dst = slices.Grow(dst, n)
	for _, l := range h.Levels {
		dst = append(dst, l.words...)
	}
	return dst
}

// HasState reports whether state is exactly what AppendState(nil)
// would return now.
func (h *Hierarchy) HasState(state []int64) bool {
	for _, l := range h.Levels {
		if len(state) < len(l.words) || !slices.Equal(l.words, state[:len(l.words)]) {
			return false
		}
		state = state[len(l.words):]
	}
	return len(state) == 0
}

// Flush empties every level (used between in-application invocations,
// where other codelets trash the cache).
func (h *Hierarchy) Flush() {
	for _, l := range h.Levels {
		l.Flush()
	}
}

// ResetCounters clears all counters, keeping contents (used to warm up
// then measure).
func (h *Hierarchy) ResetCounters() {
	for _, l := range h.Levels {
		l.ResetCounters()
	}
}

// Preload streams the byte range [base, base+size) through the
// hierarchy as reads, modeling the memory-dump load performed by the
// extracted microbenchmark's wrapper before the codelet runs.
func (h *Hierarchy) Preload(base, size int64) {
	for a := base &^ (h.lineBytes - 1); a < base+size; a += h.lineBytes {
		h.Access(a, false)
	}
}

// Package cache implements the set-associative LRU data-cache
// hierarchy simulator used by internal/sim.
//
// The paper characterizes codelets with hardware counters (cache
// misses, bandwidths) read by Likwid on real machines. Here the same
// counters are produced by pushing the codelet's memory access stream
// through this simulator configured with each machine's geometry from
// internal/arch.
//
// The model is a single-threaded, inclusive, write-allocate,
// write-back hierarchy with true-LRU replacement per set — simple,
// deterministic and sufficient for the capacity/locality distinctions
// the method relies on (L1-resident vs. streaming vs. LLC-resident
// working sets). Each set is a run of packed line<<1|dirty words in
// most-recently-used-first order: a lookup is one scan and the victim
// is the tail word.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"fgbs/internal/arch"
)

// Level is one simulated cache level.
type Level struct {
	name      string
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
		name:      cl.Name,
		ways:      cl.Ways,
		lineShift: uint(bits.TrailingZeros64(uint64(cl.LineBytes))),
		setMask:   sets - 1,
		words:     make([]int64, lines),
	}
	l.Flush()
	return l, nil
}

// Name returns the level's name (L1, L2, ...).
func (l *Level) Name() string { return l.name }

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
}

// Hierarchy chains the levels of one machine.
type Hierarchy struct {
	Levels []*Level
	// MemAccesses counts line fills that reached DRAM.
	MemAccesses int64
	// MemWritebacks counts dirty lines written back to DRAM.
	MemWritebacks int64
	lineBytes     int64
}

// NewHierarchy builds the full hierarchy for machine m.
func NewHierarchy(m *arch.Machine) (*Hierarchy, error) {
	h := &Hierarchy{}
	for _, cl := range m.Caches {
		l, err := NewLevel(cl)
		if err != nil {
			return nil, fmt.Errorf("cache: machine %s: %w", m.Name, err)
		}
		h.Levels = append(h.Levels, l)
	}
	h.lineBytes = m.Caches[0].LineBytes
	return h, nil
}

// LineBytes returns the hierarchy's line size.
func (h *Hierarchy) LineBytes() int64 { return h.lineBytes }

// Access sends one reference down the hierarchy and returns the index
// of the level that hit (0 = L1), or len(Levels) if it went to memory.
//
// A miss in level i is looked up in level i+1; fills propagate back up
// (every level on the path allocates the line, keeping the hierarchy
// inclusive). Dirty victims are written back to the next level — with
// a known quirk, kept because fixing it moves every profile byte (see
// DESIGN.md): the write-back passes the demand addr, not the victim's
// line, so it fills the demand line one level down, the demand lookup
// then hits there, and MemAccesses undercounts store streams.
func (h *Hierarchy) Access(addr int64, write bool) int {
	for i, l := range h.Levels {
		hit, dirtyEvict := l.Access(addr, write)
		if dirtyEvict {
			if i+1 < len(h.Levels) {
				// A write touch of the next level (demand addr, see
				// above); its own eviction is not propagated.
				_, _ = h.Levels[i+1].Access(addr, true)
			} else {
				h.MemWritebacks++
			}
		}
		if hit {
			return i
		}
	}
	h.MemAccesses++
	return len(h.Levels)
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
	h.MemAccesses = 0
	h.MemWritebacks = 0
}

// Preload streams the byte range [base, base+size) through the
// hierarchy as reads, modeling the memory-dump load performed by the
// extracted microbenchmark's wrapper before the codelet runs.
func (h *Hierarchy) Preload(base, size int64) {
	for a := base &^ (h.lineBytes - 1); a < base+size; a += h.lineBytes {
		h.Access(a, false)
	}
}

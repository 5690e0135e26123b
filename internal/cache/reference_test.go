package cache

import (
	"fmt"
	"math/bits"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/rng"
)

// refLevel is the clock-stamped LRU model Level replaced, kept as the
// oracle the packed MRU-ordered sets are checked against: three
// parallel slices (tags, per-way clock stamps, dirty bits) and a
// victim scan on every miss.
type refLevel struct {
	ways      int
	lineShift uint
	setMask   int64

	tags  []int64 // empty = -1
	lru   []int64 // per-set logical clock; smallest = least recent
	clock int64
	dirty []bool

	Hits, Misses, Writebacks int64
}

func newRefLevel(cl arch.CacheLevel) *refLevel {
	sets := cl.SizeBytes / cl.LineBytes / int64(cl.Ways)
	n := sets * int64(cl.Ways)
	l := &refLevel{
		ways:      cl.Ways,
		lineShift: uint(bits.TrailingZeros64(uint64(cl.LineBytes))),
		setMask:   sets - 1,
		tags:      make([]int64, n),
		lru:       make([]int64, n),
		dirty:     make([]bool, n),
	}
	for i := range l.tags {
		l.tags[i] = -1
	}
	return l
}

func (l *refLevel) Access(addr int64, write bool) (hit, dirtyEvict bool) {
	line := addr >> l.lineShift
	base := (line & l.setMask) * int64(l.ways)
	l.clock++
	for w := 0; w < l.ways; w++ {
		if l.tags[base+int64(w)] == line {
			l.Hits++
			l.lru[base+int64(w)] = l.clock
			if write {
				l.dirty[base+int64(w)] = true
			}
			return true, false
		}
	}
	l.Misses++
	victim := int64(0)
	best := l.lru[base]
	for w := int64(1); w < int64(l.ways); w++ {
		if l.tags[base+w] == -1 {
			victim = w
			best = -1
			break
		}
		if l.lru[base+w] < best {
			victim = w
			best = l.lru[base+w]
		}
	}
	dirtyEvict = l.tags[base+victim] != -1 && l.dirty[base+victim]
	if dirtyEvict {
		l.Writebacks++
	}
	l.tags[base+victim] = line
	l.lru[base+victim] = l.clock
	l.dirty[base+victim] = write
	return false, dirtyEvict
}

func (l *refLevel) Contains(addr int64) bool {
	line := addr >> l.lineShift
	base := (line & l.setMask) * int64(l.ways)
	for w := int64(0); w < int64(l.ways); w++ {
		if l.tags[base+w] == line {
			return true
		}
	}
	return false
}

func (l *refLevel) Flush() {
	for i := range l.tags {
		l.tags[i] = -1
		l.dirty[i] = false
	}
}

func (l *refLevel) ResetCounters() { l.Hits, l.Misses, l.Writebacks = 0, 0, 0 }

// refHierarchy is Hierarchy over refLevels.
type refHierarchy struct {
	Levels                     []*refLevel
	MemAccesses, MemWritebacks int64
	lineBytes                  int64
}

func newRefHierarchy(m *arch.Machine) *refHierarchy {
	h := &refHierarchy{lineBytes: m.Caches[0].LineBytes}
	for _, cl := range m.Caches {
		h.Levels = append(h.Levels, newRefLevel(cl))
	}
	return h
}

func (h *refHierarchy) Access(addr int64, write bool) int {
	for i, l := range h.Levels {
		hit, dirtyEvict := l.Access(addr, write)
		if dirtyEvict {
			if i+1 < len(h.Levels) {
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

func (h *refHierarchy) Flush() {
	for _, l := range h.Levels {
		l.Flush()
	}
}

func (h *refHierarchy) ResetCounters() {
	for _, l := range h.Levels {
		l.ResetCounters()
	}
	h.MemAccesses, h.MemWritebacks = 0, 0
}

func (h *refHierarchy) Preload(base, size int64) {
	for a := base &^ (h.lineBytes - 1); a < base+size; a += h.lineBytes {
		h.Access(a, false)
	}
}

// smallMachine is a three-level hierarchy of tiny 1-, 2- and 4-way
// caches, where conflicts and dirty evictions happen every few
// accesses.
func smallMachine(name string, lineBytes int64, ways [3]int) *arch.Machine {
	m := &arch.Machine{Name: name}
	size := lineBytes * 4
	for i, w := range ways {
		size *= 2
		m.Caches = append(m.Caches, arch.CacheLevel{
			Name: fmt.Sprintf("L%d", i+1), SizeBytes: size * int64(w), Ways: w, LineBytes: lineBytes,
		})
	}
	return m
}

// diffMachines lists every geometry the differential harness covers:
// each modeled machine plus small 1-, 2- and 4-way hierarchies.
func diffMachines() []*arch.Machine {
	ms := append(arch.All(), arch.WideVec(), arch.NehalemNoVec())
	return append(ms,
		smallMachine("direct-mapped", 64, [3]int{1, 1, 1}),
		smallMachine("two-way", 64, [3]int{2, 2, 2}),
		smallMachine("four-way", 32, [3]int{4, 4, 4}),
		smallMachine("mixed", 64, [3]int{1, 2, 4}),
	)
}

// diffHarness drives one geometry's Hierarchy and refHierarchy, plus a
// standalone Level and refLevel per cache level, through the same
// operations and fails at the first divergence.
type diffHarness struct {
	tb   testing.TB
	m    *arch.Machine
	h    *Hierarchy
	ref  *refHierarchy
	ls   []*Level
	refs []*refLevel

	step int
}

func newDiffHarness(tb testing.TB, m *arch.Machine) *diffHarness {
	tb.Helper()
	h, err := NewHierarchy(m)
	if err != nil {
		tb.Fatalf("%s: %v", m.Name, err)
	}
	d := &diffHarness{tb: tb, m: m, h: h, ref: newRefHierarchy(m)}
	for _, cl := range m.Caches {
		l, err := NewLevel(cl)
		if err != nil {
			tb.Fatalf("%s: %v", m.Name, err)
		}
		d.ls = append(d.ls, l)
		d.refs = append(d.refs, newRefLevel(cl))
	}
	return d
}

func (d *diffHarness) fail(format string, args ...any) {
	d.tb.Helper()
	d.tb.Fatalf("%s step %d: %s", d.m.Name, d.step, fmt.Sprintf(format, args...))
}

// access sends one reference through both hierarchies and both copies
// of every standalone level.
func (d *diffHarness) access(addr int64, write bool) {
	d.tb.Helper()
	if got, want := d.h.Access(addr, write), d.ref.Access(addr, write); got != want {
		d.fail("Access(%#x, %v) level = %d, want %d", addr, write, got, want)
	}
	for i, l := range d.ls {
		hit, dirty := l.Access(addr, write)
		rhit, rdirty := d.refs[i].Access(addr, write)
		if hit != rhit || dirty != rdirty {
			d.fail("%s.Access(%#x, %v) = (%v, %v), want (%v, %v)", d.m.Caches[i].Name, addr, write, hit, dirty, rhit, rdirty)
		}
	}
}

func (d *diffHarness) flush() {
	d.h.Flush()
	d.ref.Flush()
	for i, l := range d.ls {
		l.Flush()
		d.refs[i].Flush()
	}
}

func (d *diffHarness) resetCounters() {
	d.h.ResetCounters()
	d.ref.ResetCounters()
	for i, l := range d.ls {
		l.ResetCounters()
		d.refs[i].ResetCounters()
	}
}

// check compares every counter and the residency of each probe
// address at every level.
func (d *diffHarness) check(probes ...int64) {
	d.tb.Helper()
	if d.h.MemAccesses(0) != d.ref.MemAccesses || d.h.MemWritebacks(0) != d.ref.MemWritebacks {
		d.fail("memory accesses/writebacks = %d/%d, want %d/%d",
			d.h.MemAccesses(0), d.h.MemWritebacks(0), d.ref.MemAccesses, d.ref.MemWritebacks)
	}
	for i := range d.ls {
		name := d.m.Caches[i].Name
		d.same("hierarchy "+name, d.h.Levels[i], d.ref.Levels[i], probes)
		d.same("standalone "+name, d.ls[i], d.refs[i], probes)
	}
}

func (d *diffHarness) same(name string, l *Level, r *refLevel, probes []int64) {
	d.tb.Helper()
	if l.Hits != r.Hits || l.Misses != r.Misses || l.Writebacks != r.Writebacks {
		d.fail("%s: hits/misses/writebacks = %d/%d/%d, want %d/%d/%d",
			name, l.Hits, l.Misses, l.Writebacks, r.Hits, r.Misses, r.Writebacks)
	}
	for _, a := range probes {
		if got, want := l.Contains(a), r.Contains(a); got != want {
			d.fail("%s: Contains(%#x) = %v, want %v", name, a, got, want)
		}
	}
}

// run drives steps seeded operations: element-granular streams,
// same-set conflicts, reuse of recent addresses and uniform addresses,
// mixed with reads and writes, plus the occasional Flush,
// ResetCounters and Preload.
func (d *diffHarness) run(seed uint64, steps int) {
	d.tb.Helper()
	r := rng.New(seed)
	span := d.m.LastLevelSize() * 4
	l1 := d.m.Caches[0]
	setStride := l1.SizeBytes / int64(l1.Ways) // same L1 set, next tag
	writeP := r.Float64()
	var stream int64
	recent := make([]int64, 8)
	for d.step = 0; d.step < steps; d.step++ {
		var addr int64
		switch k := r.Intn(100); {
		case k < 2:
			d.flush()
			d.check(recent...)
			continue
		case k < 4:
			d.resetCounters()
			d.check(recent...)
			continue
		case k < 5:
			base, size := r.Int63n(span), r.Int63n(4*l1.SizeBytes)+1
			d.h.Preload(base, size)
			d.ref.Preload(base, size)
			d.check(base, base+size-1)
			continue
		case k < 45:
			stream = (stream + 8) % span
			addr = stream
		case k < 65:
			addr = r.Int63n(int64(3*l1.Ways))*setStride + r.Int63n(l1.LineBytes)
		case k < 85:
			addr = recent[r.Intn(len(recent))]
		default:
			addr = r.Int63n(span)
		}
		recent[d.step%len(recent)] = addr
		d.access(addr, r.Bool(writeP))
		d.check(addr, r.Int63n(span), recent[r.Intn(len(recent))])
	}
}

// FuzzLevelMatchesReference checks the packed MRU-ordered sets against
// the clock-stamped model, step by step, on fuzzed seeds, geometries and
// stream lengths. Its seed corpus, which a plain go test runs, is every
// geometry on seeds 1-3.
func FuzzLevelMatchesReference(f *testing.F) {
	for geom := range diffMachines() {
		for seed := uint64(1); seed <= 3; seed++ {
			f.Add(seed, uint8(geom), uint16(4000))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, geom uint8, steps uint16) {
		ms := diffMachines()
		newDiffHarness(t, ms[int(geom)%len(ms)]).run(seed, int(steps%4096))
	})
}

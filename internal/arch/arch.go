// Package arch defines the machine models standing in for the four
// Intel systems of the paper's Table 1 (Nehalem L5609 as reference;
// Atom D510, Core 2 E7500 and Sandy Bridge E31240 as targets).
//
// The paper measures real silicon with Likwid; this reproduction has no
// hardware, so each machine is an analytical bottleneck model consumed
// by internal/sim:
//
//   - a clock frequency,
//   - per-class execution throughputs (FP add/mul pipes, divider,
//     transcendental unit, load/store ports, integer ALUs) and an issue
//     width, which bound the compute cycles per loop iteration,
//   - SIMD width and efficiency, which set the vectorization payoff,
//   - a cache hierarchy (sizes, ways, latencies) simulated by
//     internal/cache, plus memory latency and bandwidth,
//   - an out-of-order overlap factor describing how much memory stall
//     the core hides under compute (Atom, in-order, hides none).
//
// The models are calibrated to reproduce the paper's qualitative
// contrasts: Atom is several times slower than Nehalem and pathological
// on divisions and memory misses; Core 2 trades a faster clock for a
// small last-level cache and a slow front-side bus; Sandy Bridge is
// roughly twice the reference across the board.
//
// Cache capacities are scaled down by CacheScale (and dataset sizes in
// internal/suites are scaled identically) so that the cache simulator
// processes tractable access streams while preserving every capacity
// relationship between working sets and cache levels.
package arch

import "fmt"

// CacheScale divides real cache capacities and real dataset sizes
// alike. Capacity *ratios* — which decide whether a working set is L1-,
// L2-, L3- or memory-resident on each machine — are preserved exactly.
const CacheScale = 16

// CacheLevel describes one level of the data-cache hierarchy.
type CacheLevel struct {
	Name string
	// SizeBytes is the modeled (already scaled) capacity available to a
	// single-threaded run.
	SizeBytes int64
	Ways      int
	LineBytes int64
	// LatencyCycles is the load-to-use latency of a hit in this level.
	LatencyCycles float64
}

// SameGeometry reports whether c and o have equal size, ways and line
// size: two such levels fed the same accesses hold the same lines.
func (c CacheLevel) SameGeometry(o CacheLevel) bool {
	return c.SizeBytes == o.SizeBytes && c.Ways == o.Ways && c.LineBytes == o.LineBytes
}

// GroupByGeometry partitions the indices of levels into groups of equal
// geometry (SameGeometry), in order of first appearance.
func GroupByGeometry(levels []CacheLevel) [][]int {
	var groups [][]int
next:
	for i, l := range levels {
		for g, group := range groups {
			if levels[group[0]].SameGeometry(l) {
				groups[g] = append(group, i)
				continue next
			}
		}
		groups = append(groups, []int{i})
	}
	return groups
}

// Machine is one system model.
type Machine struct {
	Name string
	// CPU is the marketing identifier from Table 1.
	CPU     string
	FreqGHz float64
	Cores   int

	// InOrder marks cores that cannot hide memory stalls (Atom).
	InOrder bool
	// IssueWidth bounds instructions retired per cycle.
	IssueWidth float64
	// SIMDBytes is the vector register width (16 = 128-bit SSE).
	SIMDBytes int64
	// SIMDFPEff derates vector FP throughput on machines whose SIMD
	// datapath is narrower than the register width (Atom executes
	// 128-bit FP ops in multiple passes).
	SIMDFPEff float64

	// Reciprocal throughputs, in operations started per cycle, for
	// scalar or one-vector operations.
	FPAddPerCycle float64
	FPMulPerCycle float64
	IntPerCycle   float64
	LoadPorts     float64
	StorePorts    float64

	// FPDivCycles is the reciprocal throughput of a double-precision
	// divide; DivVecFactor scales it for a packed divide.
	FPDivCycles  float64
	DivVecFactor float64
	// SpecialCycles is the cost of one transcendental (exp/log/sin/cos)
	// through the math library.
	SpecialCycles float64
	// SqrtCycles is the reciprocal throughput of a square root.
	SqrtCycles float64

	// Caches lists the hierarchy from L1 outward.
	Caches []CacheLevel
	// MemLatencyCycles is the full miss latency to DRAM.
	MemLatencyCycles float64
	// MemBWBytesPerCycle caps sustained memory traffic.
	MemBWBytesPerCycle float64
	// Overlap is the fraction of miss latency hidden by out-of-order
	// execution (0 for in-order Atom).
	Overlap float64
	// PrefetchEff is the additional fraction of the *exposed* miss
	// latency hidden by hardware prefetchers on sequential (small
	// constant stride) access streams. Random gathers get no benefit.
	PrefetchEff float64
}

// CyclesToSeconds converts core cycles to seconds on this machine.
func (m *Machine) CyclesToSeconds(cycles float64) float64 {
	return cycles / (m.FreqGHz * 1e9)
}

// LastLevelSize returns the capacity of the outermost cache level.
func (m *Machine) LastLevelSize() int64 {
	return m.Caches[len(m.Caches)-1].SizeBytes
}

// String returns the machine name.
func (m *Machine) String() string { return m.Name }

// scaled converts a real capacity in KB to the modeled size.
func scaledKB(kb int64) int64 { return kb * 1024 / CacheScale }

// Nehalem returns the reference architecture model (Xeon L5609,
// 1.86 GHz, 12 MB L3).
func Nehalem() *Machine {
	return &Machine{
		Name: "Nehalem", CPU: "L5609", FreqGHz: 1.86, Cores: 4,
		InOrder: false, IssueWidth: 4,
		SIMDBytes: 16, SIMDFPEff: 1.0,
		FPAddPerCycle: 1, FPMulPerCycle: 1, IntPerCycle: 3,
		LoadPorts: 1, StorePorts: 1,
		FPDivCycles: 22, DivVecFactor: 2.0, SpecialCycles: 45, SqrtCycles: 28,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: scaledKB(32), Ways: 8, LineBytes: 64, LatencyCycles: 4},
			{Name: "L2", SizeBytes: scaledKB(256), Ways: 8, LineBytes: 64, LatencyCycles: 10},
			// 12 ways rather than the real 16 so the 12 MB capacity
			// divides into a power-of-two set count.
			{Name: "L3", SizeBytes: scaledKB(12 * 1024), Ways: 12, LineBytes: 64, LatencyCycles: 38},
		},
		MemLatencyCycles: 190, MemBWBytesPerCycle: 8.5, Overlap: 0.78, PrefetchEff: 0.85,
	}
}

// Atom returns the Atom D510 model (1.66 GHz, in-order, no L3, slow
// divider, weak SIMD).
func Atom() *Machine {
	return &Machine{
		Name: "Atom", CPU: "D510", FreqGHz: 1.66, Cores: 2,
		InOrder: true, IssueWidth: 2,
		SIMDBytes: 16, SIMDFPEff: 0.45,
		FPAddPerCycle: 0.5, FPMulPerCycle: 0.25, IntPerCycle: 1.5,
		LoadPorts: 0.7, StorePorts: 0.7,
		FPDivCycles: 125, DivVecFactor: 2.0, SpecialCycles: 290, SqrtCycles: 135,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: scaledKB(24), Ways: 6, LineBytes: 64, LatencyCycles: 3},
			{Name: "L2", SizeBytes: scaledKB(512), Ways: 8, LineBytes: 64, LatencyCycles: 16},
		},
		MemLatencyCycles: 160, MemBWBytesPerCycle: 2.0, Overlap: 0.0, PrefetchEff: 0.40,
	}
}

// Core2 returns the Core 2 E7500 model (2.93 GHz, fast clock, 3 MB
// shared L2 as last level, front-side-bus memory).
func Core2() *Machine {
	return &Machine{
		Name: "Core 2", CPU: "E7500", FreqGHz: 2.93, Cores: 2,
		InOrder: false, IssueWidth: 4,
		SIMDBytes: 16, SIMDFPEff: 1.0,
		FPAddPerCycle: 1, FPMulPerCycle: 1, IntPerCycle: 3,
		LoadPorts: 1, StorePorts: 1,
		FPDivCycles: 28, DivVecFactor: 2.0, SpecialCycles: 50, SqrtCycles: 36,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: scaledKB(32), Ways: 8, LineBytes: 64, LatencyCycles: 3},
			{Name: "L2", SizeBytes: scaledKB(3 * 1024), Ways: 12, LineBytes: 64, LatencyCycles: 15},
		},
		MemLatencyCycles: 290, MemBWBytesPerCycle: 2.2, Overlap: 0.55, PrefetchEff: 0.85,
	}
}

// SandyBridge returns the Sandy Bridge E31240 model (3.3 GHz, two load
// ports, 8 MB L3).
func SandyBridge() *Machine {
	return &Machine{
		Name: "Sandy Bridge", CPU: "E31240", FreqGHz: 3.30, Cores: 4,
		InOrder: false, IssueWidth: 4.5,
		SIMDBytes: 16, SIMDFPEff: 1.0,
		FPAddPerCycle: 1, FPMulPerCycle: 1, IntPerCycle: 3,
		LoadPorts: 2, StorePorts: 1,
		FPDivCycles: 22, DivVecFactor: 2.0, SpecialCycles: 40, SqrtCycles: 21,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: scaledKB(32), Ways: 8, LineBytes: 64, LatencyCycles: 4},
			{Name: "L2", SizeBytes: scaledKB(256), Ways: 8, LineBytes: 64, LatencyCycles: 12},
			{Name: "L3", SizeBytes: scaledKB(8 * 1024), Ways: 16, LineBytes: 64, LatencyCycles: 30},
		},
		MemLatencyCycles: 170, MemBWBytesPerCycle: 6.0, Overlap: 0.82, PrefetchEff: 0.90,
	}
}

// WideVec returns a hypothetical wide-vector accelerator-like machine
// — the "completely different architecture such as a GPU" of the
// paper's §5, used by the extension experiments to probe how far the
// Intel-trained feature set generalizes. Compared to the four Table 1
// systems it has 512-bit vectors, enormous streaming bandwidth, and a
// weak scalar core: vectorizable codelets fly, recurrences and
// gather-bound codelets crawl.
func WideVec() *Machine {
	return &Machine{
		Name: "WideVec", CPU: "ACC100", FreqGHz: 1.10, Cores: 64,
		InOrder: false, IssueWidth: 2,
		SIMDBytes: 64, SIMDFPEff: 0.9,
		FPAddPerCycle: 2, FPMulPerCycle: 2, IntPerCycle: 2,
		LoadPorts: 2, StorePorts: 1,
		FPDivCycles: 80, DivVecFactor: 4.0, SpecialCycles: 220, SqrtCycles: 90,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: scaledKB(32), Ways: 8, LineBytes: 64, LatencyCycles: 6},
			{Name: "L2", SizeBytes: scaledKB(1024), Ways: 16, LineBytes: 64, LatencyCycles: 24},
		},
		MemLatencyCycles: 400, MemBWBytesPerCycle: 30.0, Overlap: 0.50, PrefetchEff: 0.95,
	}
}

// NehalemNoVec returns the reference machine with vectorization
// disabled — not different silicon but a different *compiler
// configuration* (-no-vec). Target configurations like this let the
// subsetting method drive auto-tuning decisions, the §6 extension:
// predict, from the representatives alone, which codelets benefit
// from vectorization.
func NehalemNoVec() *Machine {
	m := Nehalem()
	m.Name = "Nehalem -no-vec"
	// A 1-byte "vector" register disables packing for every element
	// type; everything else is identical.
	m.SIMDBytes = 1
	return m
}

// Reference returns the paper's reference architecture (Nehalem).
func Reference() *Machine { return Nehalem() }

// Targets returns the three target architectures in the paper's order.
func Targets() []*Machine {
	return []*Machine{Atom(), Core2(), SandyBridge()}
}

// All returns reference plus targets.
func All() []*Machine {
	return append([]*Machine{Reference()}, Targets()...)
}

// ByName returns the machine with the given name, or an error. All
// Table 1 machines plus the WideVec extension target are known.
func ByName(name string) (*Machine, error) {
	for _, m := range append(All(), WideVec(), NehalemNoVec()) {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("arch: unknown machine %q", name)
}

// Validate performs sanity checks on a machine model; it is exercised
// by tests and by cmd/fgbs when loading experimental configurations.
func (m *Machine) Validate() error {
	if m.FreqGHz <= 0 {
		return fmt.Errorf("arch %s: non-positive frequency", m.Name)
	}
	if len(m.Caches) == 0 {
		return fmt.Errorf("arch %s: no cache levels", m.Name)
	}
	prev := int64(0)
	for _, c := range m.Caches {
		if c.SizeBytes <= prev {
			return fmt.Errorf("arch %s: cache %s not larger than inner level", m.Name, c.Name)
		}
		if c.Ways <= 0 || c.LineBytes <= 0 {
			return fmt.Errorf("arch %s: cache %s has invalid geometry", m.Name, c.Name)
		}
		if c.SizeBytes%(int64(c.Ways)*c.LineBytes) != 0 {
			return fmt.Errorf("arch %s: cache %s size %d not divisible into %d ways of %dB lines",
				m.Name, c.Name, c.SizeBytes, c.Ways, c.LineBytes)
		}
		prev = c.SizeBytes
	}
	if m.Overlap < 0 || m.Overlap > 1 {
		return fmt.Errorf("arch %s: overlap %f outside [0,1]", m.Name, m.Overlap)
	}
	//fgbs:allow floatcompare exact-zero sentinel: in-order overlap is set to literal 0, never computed
	if m.InOrder && m.Overlap != 0 {
		return fmt.Errorf("arch %s: in-order core cannot overlap misses", m.Name)
	}
	if m.PrefetchEff < 0 || m.PrefetchEff > 1 {
		return fmt.Errorf("arch %s: prefetch efficiency %f outside [0,1]", m.Name, m.PrefetchEff)
	}
	if m.MemBWBytesPerCycle <= 0 || m.MemLatencyCycles <= 0 {
		return fmt.Errorf("arch %s: invalid memory parameters", m.Name)
	}
	return nil
}

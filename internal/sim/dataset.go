// Package sim executes codelets on the modeled machines and produces
// the dynamic measurements (execution time and hardware-counter-style
// statistics) that the paper obtains with Likwid probes on real
// hardware.
//
// The simulator is a performance simulator, not a functional one:
// floating-point values never influence an access stream, so they are
// not materialized. Integer array contents are materialized because
// they steer indirect addressing (gathers and scatters) — the one way
// data influences timing.
//
// An invocation is simulated by walking the codelet's loop nest,
// streaming every memory reference through the machine's cache
// hierarchy (internal/cache), and combining three cost components:
//
//	compute   = sum over innermost loops of trips x cycles/iteration
//	            (from internal/compile's port model, L1-hit assumption)
//	bandwidth = line traffic to and from DRAM divided by the machine's
//	            sustainable bandwidth
//	latency   = per-access miss penalties, scaled by how much of them
//	            the core exposes (in-order Atom exposes everything;
//	            out-of-order cores hide most, hardware prefetchers hide
//	            more on sequential streams)
//
//	cycles = max(compute, bandwidth) + exposed latency + probe overhead
//
// Two measurement modes mirror the paper's setup:
//
//   - ModeInApp: the codelet as profiled inside its application (Step
//     B). Between two invocations the rest of the application trashes
//     the cache, so each starts cold, unless the codelet is WarmInApp
//     (its arrays are shared, and its neighbors keep them warm).
//     Dataset-varying codelets see their per-invocation trip counts
//     change. An invocation that repeats an earlier one is not walked
//     again (see below).
//   - ModeStandalone: the extracted microbenchmark (Step D). The
//     wrapper loads the memory dump (warming the cache), invocations
//     run back to back, and the dataset is the one captured at the
//     application's first invocation. Context-sensitive codelets are
//     recompiled without the application context.
//
// An invocation is not always walked. Its start state is every cache
// line with its dirty bit and LRU position, plus every parameter value
// (the varying one included); nothing else a walk reads changes within
// a Measure call. When an invocation's start state equals that of the
// last walked invocation, it takes that walk's tallies and skips the
// walk: the same state and the same access sequence give the same
// tallies. The cache is left as it was, and that is exact too. Without
// a flush, an equal start state means the last walk ended where it
// began, a fixed point. With a flush, the next invocation empties the
// cache anyway. So a flushed in-app invocation repeats the first one
// unless its trip counts vary, and a standalone or warm in-app
// invocation repeats once the cache settles. Only per-invocation
// noise and the cost model run again.
//
// Nor is every iteration of an innermost loop walked. After a walked
// iteration in which every ref is affine and hits L1, each ref stays on
// the L1 line it just touched for a number of further iterations that
// its address and stride give; for j, the least of these, the next j
// iterations touch the same lines in the same order. They are skipped:
// L1 gains j hits per ref and each ref's address advances j strides.
// That is exact too. A hit never evicts, so every line the walked
// iteration touched is still in L1; replaying its line sequence moves
// the same lines to the front of their sets in the same order, which
// leaves the MRU order as it was, and a store finds its dirty bit
// already set. An L1 hit exposes no latency, so no float tally moves. A
// loop with an indirect ref walks every iteration.
//
// Nor is every machine walked on its own. MeasureGroup walks once for
// all the machines that share an L1 geometry, and Measure is its
// one-machine case. The access stream (addresses, loop control,
// indirect indices) comes from the program and its dataset alone, so
// it is computed once per walk and fed to one cache.Hierarchy, in
// which a level is shared by every machine whose levels from L1 down
// to it have equal geometry. That is exact too: a level shared by equal
// geometry prefixes sees exactly the accesses each machine's own level
// would see, so it holds the same lines and counts the same events.
// What differs between machines stays per machine: costs per
// iteration, latency exposure and tables, float tallies (each adds in
// the order a walk of that machine alone adds it), noise and the median
// pick. A line run is skipped only when every ref hit the walk's one
// L1, which is the condition for each machine alone. An invocation is
// replayed only when the whole walk's start state repeats; a machine
// that alone would have replayed is walked again instead, and walking
// again from a start state gives the tallies replay would.
//
// Every float product that feeds a sum is rounded explicitly
// (float64(x*y) + z), so no architecture fuses it into a multiply-add:
// the tallies do not depend on GOARCH.
package sim

import (
	"fmt"

	"fgbs/internal/ir"
	"fgbs/internal/rng"
)

// datasetAlign is the base-address alignment of every array.
const datasetAlign = 64

// Dataset is the simulated memory image of one program: array base
// addresses plus the contents of integer arrays.
type Dataset struct {
	prog  *ir.Program
	bases map[string]int64
	sizes map[string]int64
	ints  map[string][]int64
	// TotalBytes is the packed footprint of all arrays.
	TotalBytes int64
}

// BuildDataset lays out the program's arrays in a flat address space
// and fills integer arrays according to their declared initializers.
// The seed makes the pseudo-random initializers reproducible.
func BuildDataset(p *ir.Program, seed uint64) (*Dataset, error) {
	ds := &Dataset{
		prog:  p,
		bases: make(map[string]int64),
		sizes: make(map[string]int64),
		ints:  make(map[string][]int64),
	}
	r := rng.New(seed)
	addr := int64(4096)
	for _, a := range p.Arrays() {
		n := a.Elems(p.Params)
		if n < 0 {
			return nil, fmt.Errorf("sim: array %q has negative size", a.Name)
		}
		bytes := n * a.DT.Size()
		ds.bases[a.Name] = addr
		ds.sizes[a.Name] = bytes
		addr += (bytes + datasetAlign) &^ (datasetAlign - 1)
		if a.DT == ir.I64 {
			data, err := initInts(a, n, p.Params, r)
			if err != nil {
				return nil, err
			}
			ds.ints[a.Name] = data
		}
	}
	ds.TotalBytes = addr - 4096
	return ds, nil
}

func initInts(a *ir.Array, n int64, params map[string]int64, r *rng.RNG) ([]int64, error) {
	data := make([]int64, n)
	switch a.Init.Kind {
	case ir.IntInitZero:
		// already zero
	case ir.IntInitUniform:
		bound := a.Init.Bound.Eval(params)
		if bound <= 0 {
			return nil, fmt.Errorf("sim: array %q: uniform init with bound %d", a.Name, bound)
		}
		for i := range data {
			data[i] = r.Int63n(bound)
		}
	case ir.IntInitMod:
		bound := a.Init.Bound.Eval(params)
		if bound <= 0 {
			return nil, fmt.Errorf("sim: array %q: mod init with bound %d", a.Name, bound)
		}
		for i := range data {
			data[i] = int64(i) % bound
		}
	default:
		return nil, fmt.Errorf("sim: array %q: unknown init kind %d", a.Name, a.Init.Kind)
	}
	return data, nil
}

// Base returns the base address of array name.
func (ds *Dataset) Base(name string) int64 { return ds.bases[name] }

// SizeBytes returns the footprint of array name.
func (ds *Dataset) SizeBytes(name string) int64 { return ds.sizes[name] }

// Ints returns the contents of integer array name (nil for FP arrays).
func (ds *Dataset) Ints(name string) []int64 { return ds.ints[name] }

// WorkingSetBytes returns the total footprint of the arrays referenced
// by codelet c — the size of the memory dump its extracted
// microbenchmark would carry.
func (ds *Dataset) WorkingSetBytes(c *ir.Codelet) int64 {
	names := referencedArrays(c)
	var total int64
	for name := range names {
		total += ds.sizes[name]
	}
	return total
}

// referencedArrays collects the arrays a codelet touches.
func referencedArrays(c *ir.Codelet) map[string]bool {
	names := make(map[string]bool)
	var walkLoop func(l *ir.Loop)
	walkLoop = func(l *ir.Loop) {
		for _, s := range l.Body {
			switch st := s.(type) {
			case *ir.Loop:
				walkLoop(st)
			case *ir.Assign:
				names[st.LHS.Array] = true
				ir.WalkExpr(st.RHS, func(e ir.Expr) {
					if ld, ok := e.(*ir.Load); ok {
						names[ld.Ref.Array] = true
					}
				})
				for _, ix := range st.LHS.Index {
					ir.WalkExpr(ix, func(e ir.Expr) {
						if ld, ok := e.(*ir.Load); ok {
							names[ld.Ref.Array] = true
						}
					})
				}
			}
		}
	}
	walkLoop(c.Loop)
	return names
}

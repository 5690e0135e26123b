// Package compile lowers IR codelets to per-iteration instruction
// bundles for a specific machine, playing the role of the vectorizing
// compiler (Intel 12.1 -O3) in the paper's toolchain.
//
// For every innermost loop, lowering:
//
//   - classifies each statement's loop-carried dependence (none /
//     reduction / recurrence) to decide vectorization legality,
//   - applies the machine's SIMD width and the statement's hints to
//     decide vectorization profitability,
//   - register-allocates scalar (0-dimensional) references so that
//     reduction accumulators do not generate memory traffic,
//   - computes the compute-bound cycles per iteration through a
//     dispatch-port throughput model with serial penalties for
//     divisions, square roots, transcendentals, and loop-carried
//     dependence chains.
//
// The resulting Loop costs assume all memory accesses hit L1 — the
// same "static lower bound" MAQAO reports. internal/sim adds the
// dynamic memory behavior on top.
//
// Context sensitivity: codelets marked ContextSensitive lose
// vectorization when lowered with inApp=false, modeling the paper's
// second category of ill-behaved codelets ("codelets which are
// compiled differently inside and outside the application").
package compile

import (
	"fgbs/internal/arch"
	"fgbs/internal/ir"
)

// Approximate instruction latencies used for dependence-chain costing.
const (
	fpAddLatency = 3.0
	fpMulLatency = 5.0
	intLatency   = 1.0
	// loopOverheadInstr models induction update + compare + branch.
	loopOverheadInstr = 2.0
	// maxVectorStride is the largest affine element stride the
	// vectorizer packs with shuffles; beyond it, code stays scalar.
	maxVectorStride = 8
)

// MemRef is one memory-visible reference of a lowered statement.
type MemRef struct {
	Ref    *ir.Ref
	Stride ir.Stride
	Write  bool
}

// Stmt is one lowered assignment.
type Stmt struct {
	Assign *ir.Assign
	Dep    ir.DepClass
	// Vectorized reports the compiler's decision; Lanes is the number
	// of elements per vector operation when vectorized (else 1).
	Vectorized bool
	Lanes      int64
	// Ops counts operations per scalar iteration (vectorization does
	// not change the operation count, only the instruction count).
	Ops ir.OpCount
	// Mem lists the references that touch memory after scalar
	// register allocation, in evaluation order (loads then the store).
	Mem []MemRef
	// GatherLoads counts indirect loads per iteration.
	GatherLoads int64
	// StridedVector reports a vectorized statement with a non-unit
	// stride (costed with a packing penalty).
	StridedVector bool
}

// Loop is a lowered innermost loop with its static cost model.
type Loop struct {
	Context *ir.LoopContext
	Stmts   []Stmt

	// CyclesPerIter is the compute-bound cost of one scalar iteration
	// assuming L1 hits (vector speedups folded in).
	CyclesPerIter float64
	// InstrPerIter estimates issued instructions per scalar iteration.
	InstrPerIter float64
	// ChainCycles is the loop-carried dependence chain latency per
	// iteration (0 when no recurrence).
	ChainCycles float64
	// StallCycles is the part of CyclesPerIter attributable to
	// dependence stalls: max(0, ChainCycles - throughput bound).
	StallCycles float64
	// PortPressure estimates utilization of the add, mul, load and
	// store ports at the modeled throughput (1.0 = saturated), under
	// the L1-hit assumption.
	PortPressure PortPressure
}

// PortPressure carries per-port utilization shares.
type PortPressure struct {
	Add, Mul, Load, Store, Int float64
}

// Codelet is the lowering result for a whole codelet.
type Codelet struct {
	Source  *ir.Codelet
	Machine *arch.Machine
	// InApp records the compilation context used (see package doc).
	InApp bool
	Loops []*Loop
}

// Lower compiles codelet c of program p for machine m. inApp selects
// the in-application compilation context; standalone extraction passes
// false.
func Lower(p *ir.Program, c *ir.Codelet, m *arch.Machine, inApp bool) *Codelet {
	out := &Codelet{Source: c, Machine: m, InApp: inApp}
	for _, lc := range c.InnermostLoops() {
		out.Loops = append(out.Loops, lowerLoop(p, c, lc, m, inApp))
	}
	return out
}

func lowerLoop(p *ir.Program, c *ir.Codelet, lc *ir.LoopContext, m *arch.Machine, inApp bool) *Loop {
	loop := &Loop{Context: lc}
	inner := lc.Loop.Var
	for _, s := range lc.Loop.Body {
		a, ok := s.(*ir.Assign)
		if !ok {
			continue
		}
		st := lowerStmt(p, c, a, inner, m, inApp)
		loop.Stmts = append(loop.Stmts, st)
	}
	costLoop(loop, m)
	return loop
}

func lowerStmt(p *ir.Program, c *ir.Codelet, a *ir.Assign, inner string, m *arch.Machine, inApp bool) Stmt {
	st := Stmt{
		Assign: a,
		Dep:    p.ClassifyDep(a, inner),
		Ops:    ir.CountAssign(a),
		Lanes:  1,
	}

	// Memory-visible references: scalar (0-dim) refs are register-
	// allocated and dropped.
	indirect := false
	strided := false
	bigStrideRefs := 0
	bigStrideStore := false
	addMem := func(r *ir.Ref, write bool) {
		if len(r.Index) == 0 {
			// Register-allocated scalar: remove from the op counts'
			// memory traffic too.
			if write {
				st.Ops.Stores--
			} else {
				st.Ops.Loads--
			}
			return
		}
		sd := p.RefStride(r, inner)
		switch sd.Kind {
		case ir.StrideIndirect:
			indirect = true
			if !write {
				st.GatherLoads++
			}
		case ir.StrideAffine:
			if sd.Elems != 1 && sd.Elems != -1 {
				strided = true
			}
			if sd.Elems > maxVectorStride || sd.Elems < -maxVectorStride {
				bigStrideRefs++
				if write {
					bigStrideStore = true
				}
			}
		}
		st.Mem = append(st.Mem, MemRef{Ref: r, Stride: sd, Write: write})
	}
	ir.WalkExpr(a.RHS, func(e ir.Expr) {
		if ld, ok := e.(*ir.Load); ok {
			addMem(ld.Ref, false)
		}
	})
	addMem(a.LHS, true)

	// Vectorization decision. Large-stride (column-walk) code is left
	// scalar when the strided references dominate or the store itself
	// strides: packing costs outweigh the SIMD benefit, which is what
	// the paper's compiler does for the LDA-stride NR codelets.
	elem := a.LHS.DType()
	lanes := m.SIMDBytes / elem.Size()
	profitable := !bigStrideStore && 2*bigStrideRefs <= len(st.Mem)
	// Machines whose SIMD datapath is narrower than the register width
	// (Atom) gain nothing from packing two doubles; the profitability
	// heuristic keeps such code scalar unless an unpipelined unit
	// (divide, sqrt) amortizes across lanes.
	simdGain := float64(lanes) * m.SIMDFPEff
	if simdGain <= 1 && st.Ops.FDiv == 0 && st.Ops.FSqrt == 0 {
		profitable = false
	}
	vectorizable := lanes > 1 &&
		st.Dep != ir.DepRecurrence &&
		!indirect &&
		profitable &&
		a.Hint != ir.VecNever &&
		!(c.ContextSensitive && !inApp)
	if vectorizable {
		st.Vectorized = true
		st.Lanes = lanes
		st.StridedVector = strided
	}
	return st
}

// costLoop fills the loop-level cost fields from its statements under
// machine m's throughput model.
func costLoop(l *Loop, m *arch.Machine) {
	var addDemand, mulDemand, loadDemand, storeDemand, intDemand float64
	var serial float64 // unpipelined op cycles per iteration
	var chain float64  // loop-carried chain latency per iteration
	var instr float64

	for _, st := range l.Stmts {
		o := st.Ops
		lanes := float64(st.Lanes)
		vecEff := 1.0
		if st.Vectorized {
			vecEff = m.SIMDFPEff
			if st.StridedVector {
				// Strided vector access needs packing shuffles:
				// charge the loads at half vector efficiency.
				vecEff *= 0.5
			}
		}
		// Port demands in cycles per scalar iteration.
		addDemand += float64(o.FAdd) / lanes / (m.FPAddPerCycle * vecEff)
		mulDemand += float64(o.FMul) / lanes / (m.FPMulPerCycle * vecEff)
		intDemand += float64(o.IntOps) / lanes / m.IntPerCycle
		memLoads, memStores := 0.0, 0.0
		for _, mr := range st.Mem {
			if mr.Write {
				memStores++
			} else {
				memLoads++
			}
		}
		loadDemand += memLoads / lanes / m.LoadPorts
		storeDemand += memStores / lanes / m.StorePorts

		// Unpipelined units: divides, square roots, transcendentals.
		// A packed divide retires lanes elements in roughly
		// FPDivCycles*lanes/DivVecFactor cycles, i.e. per element the
		// scalar cost divided by DivVecFactor.
		serial += float64(o.FDiv) * m.FPDivCycles / vecBoost(st, m.DivVecFactor)
		serial += float64(o.FSqrt) * m.SqrtCycles / vecBoost(st, m.DivVecFactor)
		serial += float64(o.FSpecial) * m.SpecialCycles // libm calls stay scalar per element

		// Loop-carried chain latency for recurrences: the iteration
		// cannot start before the previous one finished its critical
		// path.
		if st.Dep == ir.DepRecurrence {
			chain += float64(o.FAdd)*fpAddLatency + float64(o.FMul)*fpMulLatency +
				float64(o.FDiv)*m.FPDivCycles + float64(o.FSqrt)*m.SqrtCycles +
				float64(o.FSpecial)*m.SpecialCycles + float64(o.IntOps)*intLatency
		}

		// Instruction estimate: arithmetic ops + memory ops, packed.
		opsTotal := float64(o.FPOps()+o.IntOps) + memLoads + memStores
		instr += opsTotal / lanes * vecInstrFactor(st)
	}
	// The induction/compare/branch overhead is paid once per loop
	// iteration; a vectorized loop retires `lanes` elements per
	// iteration, amortizing it.
	maxLanes := 1.0
	for _, st := range l.Stmts {
		if float64(st.Lanes) > maxLanes {
			maxLanes = float64(st.Lanes)
		}
	}
	instr += loopOverheadInstr / maxLanes
	issue := instr / m.IssueWidth

	bound := maxF(addDemand, mulDemand, loadDemand, storeDemand, intDemand, issue)
	cycles := bound + serial
	stall := 0.0
	if chain > cycles {
		stall = chain - cycles
		cycles = chain
	}
	l.CyclesPerIter = cycles
	l.InstrPerIter = instr
	l.ChainCycles = chain
	l.StallCycles = stall
	if cycles > 0 {
		l.PortPressure = PortPressure{
			Add:   addDemand / cycles,
			Mul:   mulDemand / cycles,
			Load:  loadDemand / cycles,
			Store: storeDemand / cycles,
			Int:   intDemand / cycles,
		}
	}
}

// vecBoost returns the divisor applied to unpipelined-unit costs when
// the statement is vectorized.
func vecBoost(st Stmt, factor float64) float64 {
	if st.Vectorized {
		return factor
	}
	return 1
}

// vecInstrFactor inflates the instruction estimate slightly for
// strided vector code (extra shuffle instructions).
func vecInstrFactor(st Stmt) float64 {
	if st.Vectorized && st.StridedVector {
		return 1.5
	}
	return 1
}

func maxF(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

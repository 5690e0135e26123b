// Package maqao computes static loop metrics for codelets, standing in
// for the MAQAO static loop analyzer the paper uses in Step B.
//
// MAQAO disassembles the compiled binary and reports, for each
// innermost loop, metrics such as the loop size, dispatch-port
// pressures, the instruction mix, vectorization ratios per instruction
// class, and performance lower bounds computed under the assumption
// that every memory access hits L1 (§3.2).
//
// Here the "binary" is the lowering produced by internal/compile for
// the reference architecture, so the same quantities are computed from
// the lowered loops. Metrics for codelets with several innermost loops
// are aggregated weighted by statically estimated trip counts
// (ir.LoopContext.EstTrip).
package maqao

import (
	"fgbs/internal/arch"
	"fgbs/internal/compile"
	"fgbs/internal/ir"
)

// Static is the MAQAO-style static metric set for one codelet.
type Static struct {
	// LoopInstr is the estimated instruction count of one iteration
	// of the (weighted) innermost loops: the "size of the loop".
	LoopInstr float64
	// EstIPCL1 is the estimated instructions-per-cycle assuming all
	// memory accesses hit L1.
	EstIPCL1 float64
	// BytesStoredPerCycle assumes L1 hits (Table 2's "Bytes stored per
	// cycle assuming L1 hits").
	BytesStoredPerCycle float64
	// BytesLoadedPerCycle is the load-side counterpart.
	BytesLoadedPerCycle float64
	// DepStallCycles is the per-iteration stall attributable to
	// loop-carried dependence chains ("Data dependencies stalls").
	DepStallCycles float64

	// PressureP0 / PressureP1 / PressureLoad / PressureStore /
	// PressureInt are dispatch-port utilizations under the L1-hit
	// assumption (P0 = FP multiply pipe, P1 = FP add pipe, matching
	// Table 2's "Pressure in dispatch port P1").
	PressureP0, PressureP1      float64
	PressureLoad, PressureStore float64
	PressureInt                 float64

	// CyclesPerIterL1 is the static per-iteration cycle lower bound.
	CyclesPerIterL1 float64
	// ChainCyclesPerIter is the loop-carried dependence chain latency
	// per iteration.
	ChainCyclesPerIter float64
	// Per-iteration operation mix.
	LoadsPerIter, StoresPerIter float64
	FPOpsPerIter, IntOpsPerIter float64
	GatherLoadsPerIter          float64
	// AvgVecLanes is the mean SIMD lane count across statements
	// (1 = fully scalar).
	AvgVecLanes float64
	// ReductionShare / RecurrenceShare are the fractions of statements
	// with those dependence classes.
	ReductionShare, RecurrenceShare float64

	// NumFPDiv is the number of FP divides per iteration.
	NumFPDiv float64
	// NumSpecial is the number of sqrt/exp/log/sin/cos per iteration.
	NumSpecial float64
	// NumSD estimates scalar-double instructions per iteration (SD =
	// the SSE "scalar double" form; high values mean unvectorized DP
	// code).
	NumSD float64
	// AddSubMulRatio is (FP adds+subs) / FP muls, with the convention
	// that a zero mul count yields adds+subs (Table 2's "Ratio between
	// ADD+SUB/MUL").
	AddSubMulRatio float64

	// Vectorization ratios per instruction class, in [0, 1]
	// (Table 2's "Vectorization ratio for ..." features).
	VecRatioMul   float64
	VecRatioAdd   float64
	VecRatioOther float64
	VecRatioInt   float64
	VecRatioAll   float64

	// F32Share is the fraction of FP operations in single precision.
	F32Share float64
	// RegistersUsed estimates the number of architectural registers
	// the loop body needs.
	RegistersUsed float64
}

// Analyze computes static metrics for codelet c lowered on machine m
// (the paper always runs MAQAO on the reference architecture's
// binary). The lowering uses the in-application compilation context.
func Analyze(p *ir.Program, c *ir.Codelet, m *arch.Machine) Static {
	low := compile.Lower(p, c, m, true)
	var s Static

	totalW := 0.0
	var wInstr, wCycles, wStoreBytes, wLoadBytes, wStall, wChain float64
	var wP0, wP1, wPL, wPS, wPI float64
	var wDiv, wSpecial, wSD float64
	var wAddSub, wMul float64
	var wF32, wFP, wInt, wLoads, wStores, wGather float64
	var wRegs, wLanes float64
	var stmtCount, redCount, recCount float64
	// Vectorized shares of the weighted op counts; wMul, wAddSub and
	// wInt are the matching totals for the mul, add and int classes.
	var vMul, vAdd, vOther, tOther, vInt float64

	for _, l := range low.Loops {
		w := l.Context.EstTrip(p.Params)
		totalW += w
		wInstr += w * l.InstrPerIter
		wCycles += w * l.CyclesPerIter
		wStall += w * l.StallCycles
		wChain += w * l.ChainCycles
		wP0 += w * l.PortPressure.Mul
		wP1 += w * l.PortPressure.Add
		wPL += w * l.PortPressure.Load
		wPS += w * l.PortPressure.Store
		wPI += w * l.PortPressure.Int

		var storeBytes, loadBytes float64
		regs := 2.0 // induction + accumulator baseline
		for _, st := range l.Stmts {
			o := st.Ops
			v := 0.0
			if st.Vectorized {
				v = 1.0
			}
			vMul += w * v * float64(o.FMul)
			vAdd += w * v * float64(o.FAdd)
			other := float64(o.FDiv+o.FSqrt+o.FSpecial+o.IntOps) + float64(len(st.Mem))
			tOther += w * other
			vOther += w * v * other
			vInt += w * v * float64(o.IntOps)
			wDiv += w * float64(o.FDiv)
			wSpecial += w * float64(o.FSqrt+o.FSpecial)
			wAddSub += w * float64(o.FAdd)
			wMul += w * float64(o.FMul)
			wF32 += w * float64(o.F32Ops)
			wFP += w * float64(o.FPOps())
			wInt += w * float64(o.IntOps)
			wGather += w * float64(st.GatherLoads)
			wLanes += w * float64(st.Lanes)
			stmtCount += w
			switch st.Dep {
			case ir.DepReduction:
				redCount += w
			case ir.DepRecurrence:
				recCount += w
			}
			if !st.Vectorized && st.Assign.LHS.DType() == ir.F64 {
				wSD += w * float64(o.FPOps())
			}
			for _, mr := range st.Mem {
				bytes := float64(mr.Ref.DType().Size())
				if mr.Write {
					storeBytes += bytes
					wStores += w
				} else {
					loadBytes += bytes
					wLoads += w
				}
				regs++
			}
		}
		if l.CyclesPerIter > 0 {
			wStoreBytes += w * storeBytes / l.CyclesPerIter
			wLoadBytes += w * loadBytes / l.CyclesPerIter
		}
		wRegs += w * regs
	}
	//fgbs:allow floatcompare exact-zero division guard, not a tolerance comparison
	if totalW == 0 {
		return s
	}

	s.LoopInstr = wInstr / totalW
	if wCycles > 0 {
		s.EstIPCL1 = wInstr / wCycles
	}
	s.BytesStoredPerCycle = wStoreBytes / totalW
	s.BytesLoadedPerCycle = wLoadBytes / totalW
	s.DepStallCycles = wStall / totalW
	s.ChainCyclesPerIter = wChain / totalW
	s.CyclesPerIterL1 = wCycles / totalW
	s.PressureP0 = wP0 / totalW
	s.PressureP1 = wP1 / totalW
	s.PressureLoad = wPL / totalW
	s.PressureStore = wPS / totalW
	s.PressureInt = wPI / totalW
	s.NumFPDiv = wDiv / totalW
	s.NumSpecial = wSpecial / totalW
	s.NumSD = wSD / totalW
	s.LoadsPerIter = wLoads / totalW
	s.StoresPerIter = wStores / totalW
	s.FPOpsPerIter = wFP / totalW
	s.IntOpsPerIter = wInt / totalW
	s.GatherLoadsPerIter = wGather / totalW
	if stmtCount > 0 {
		s.AvgVecLanes = wLanes / stmtCount
		s.ReductionShare = redCount / stmtCount
		s.RecurrenceShare = recCount / stmtCount
	}
	if wMul > 0 {
		s.AddSubMulRatio = wAddSub / wMul
	} else {
		s.AddSubMulRatio = wAddSub / totalW
	}
	if wFP > 0 {
		s.F32Share = wF32 / wFP
	}
	s.RegistersUsed = wRegs / totalW

	s.VecRatioMul = ratio(vMul, wMul)
	s.VecRatioAdd = ratio(vAdd, wAddSub)
	s.VecRatioOther = ratio(vOther, tOther)
	s.VecRatioInt = ratio(vInt, wInt)
	s.VecRatioAll = ratio(vMul+vAdd+vOther, wMul+wAddSub+tOther)
	return s
}

func ratio(num, den float64) float64 {
	//fgbs:allow floatcompare exact-zero division guard, not a tolerance comparison
	if den == 0 {
		return 0
	}
	return num / den
}

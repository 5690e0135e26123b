// Package features defines the canonical 76-feature performance
// signature used to cluster codelets, mirroring §3.2: "MAQAO and
// Likwid gather 76 different features. A subset of these features
// produce codelets' feature vectors."
//
// The catalog has three groups:
//
//   - Likwid: dynamic metrics derived from the reference-architecture
//     profiling run (internal/sim + internal/metrics),
//   - MAQAO: static innermost-loop metrics (internal/maqao),
//   - Structure: source-level access-pattern descriptors (strides,
//     nest shape) computed from the IR; MAQAO derives the equivalent
//     information from the binary's addressing modes.
//
// A Mask selects a feature subset; the genetic algorithm of §4.2
// searches the space of masks, and PaperMask returns the equivalent of
// the paper's Table 2 winner.
package features

import (
	"fmt"
	"math"

	"fgbs/internal/ir"
	"fgbs/internal/maqao"
	"fgbs/internal/metrics"
	"fgbs/internal/sim"
)

// NumFeatures is the size of the full catalog, matching the paper.
const NumFeatures = 76

// Group labels a feature's provenance.
type Group uint8

const (
	// GroupLikwid marks dynamic, counter-derived features.
	GroupLikwid Group = iota
	// GroupMAQAO marks static loop-analysis features.
	GroupMAQAO
	// GroupStructure marks IR-level access-pattern features.
	GroupStructure
)

// String names the group.
func (g Group) String() string {
	switch g {
	case GroupLikwid:
		return "likwid"
	case GroupMAQAO:
		return "maqao"
	default:
		return "structure"
	}
}

// Descriptor documents one catalog entry.
type Descriptor struct {
	Index int
	Name  string
	Group Group
	// Log marks features stored on a log10 scale because their raw
	// dynamic range spans orders of magnitude (rates, counts).
	Log bool
}

// Feature indices. The order is fixed: it defines the GA's genome
// layout and the mask serialization.
const (
	// Likwid dynamic features.
	FExecSeconds = iota
	FCPI
	FMFLOPS
	FVecFPShare
	FL1MissRate
	FL2BandwidthMBs
	FL3BandwidthMBs
	FL3MissRate
	FMemBandwidthMBs
	FMemAccessPerInstr
	FOpIntensity
	FL1HitRate
	FL2MissRate
	FMemWritebackShare
	FLoadsPerInstr
	FStoresPerInstr
	FFPPerInstr
	FIntPerInstr
	FLoadStoreRatio
	FInstrPerInvocation
	FCyclesPerInvocation
	FFPOpsPerInvocation
	FMemBytesPerInvocation
	FWorkingSetBytes
	FComputeShare
	FBandwidthShare
	FLatencyShare
	FFAddShare
	FFMulShare
	FFDivShare
	FFSqrtShare
	FFSpecialShare
	FF32ShareDyn
	FVecFPOpsPerCycle

	// MAQAO static features.
	FLoopInstr
	FEstIPCL1
	FBytesStoredPerCycle
	FBytesLoadedPerCycle
	FDepStallCycles
	FChainCyclesPerIter
	FCyclesPerIterL1
	FPressureP0
	FPressureP1
	FPressureLoad
	FPressureStore
	FPressureInt
	FNumFPDiv
	FNumSpecial
	FNumSD
	FAddSubMulRatio
	FVecRatioMul
	FVecRatioAdd
	FVecRatioOther
	FVecRatioInt
	FVecRatioAll
	FF32ShareStatic
	FRegistersUsed
	FLoadsPerIter
	FStoresPerIter
	FFPOpsPerIter
	FIntOpsPerIter
	FGatherLoadsPerIter
	FAvgVecLanes
	FReductionShare
	FRecurrenceShare
	FInstrPerFP

	// Structural features.
	FStrideUnitShare
	FStrideConstShare
	FStrideIndirectShare
	FStrideOtherShare
	FNumInnerLoops
	FNestDepth
	FEstInnerTrip
	FNumStatements
	FNumArrays
	FDimensionality

	numFeaturesCheck
)

// catalog holds the descriptors, indexed by feature id.
var catalog = buildCatalog()

func buildCatalog() []Descriptor {
	d := make([]Descriptor, NumFeatures)
	set := func(idx int, name string, g Group, log bool) {
		d[idx] = Descriptor{Index: idx, Name: name, Group: g, Log: log}
	}
	set(FExecSeconds, "exec_seconds", GroupLikwid, true)
	set(FCPI, "cycles_per_instr", GroupLikwid, false)
	set(FMFLOPS, "mflops", GroupLikwid, true)
	set(FVecFPShare, "vec_fp_share", GroupLikwid, false)
	set(FL1MissRate, "l1_miss_rate", GroupLikwid, false)
	set(FL2BandwidthMBs, "l2_bandwidth_mbs", GroupLikwid, true)
	set(FL3BandwidthMBs, "l3_bandwidth_mbs", GroupLikwid, true)
	set(FL3MissRate, "l3_miss_rate", GroupLikwid, false)
	set(FMemBandwidthMBs, "mem_bandwidth_mbs", GroupLikwid, true)
	set(FMemAccessPerInstr, "mem_access_per_instr", GroupLikwid, false)
	set(FOpIntensity, "op_intensity", GroupLikwid, true)
	set(FL1HitRate, "l1_hit_rate", GroupLikwid, false)
	set(FL2MissRate, "l2_miss_rate", GroupLikwid, false)
	set(FMemWritebackShare, "mem_writeback_share", GroupLikwid, false)
	set(FLoadsPerInstr, "loads_per_instr", GroupLikwid, false)
	set(FStoresPerInstr, "stores_per_instr", GroupLikwid, false)
	set(FFPPerInstr, "fp_per_instr", GroupLikwid, false)
	set(FIntPerInstr, "int_per_instr", GroupLikwid, false)
	set(FLoadStoreRatio, "load_store_ratio", GroupLikwid, false)
	set(FInstrPerInvocation, "instr_per_invocation", GroupLikwid, true)
	set(FCyclesPerInvocation, "cycles_per_invocation", GroupLikwid, true)
	set(FFPOpsPerInvocation, "fp_ops_per_invocation", GroupLikwid, true)
	set(FMemBytesPerInvocation, "mem_bytes_per_invocation", GroupLikwid, true)
	set(FWorkingSetBytes, "working_set_bytes", GroupLikwid, true)
	set(FComputeShare, "compute_share", GroupLikwid, false)
	set(FBandwidthShare, "bandwidth_share", GroupLikwid, false)
	set(FLatencyShare, "latency_share", GroupLikwid, false)
	set(FFAddShare, "fadd_share", GroupLikwid, false)
	set(FFMulShare, "fmul_share", GroupLikwid, false)
	set(FFDivShare, "fdiv_share", GroupLikwid, false)
	set(FFSqrtShare, "fsqrt_share", GroupLikwid, false)
	set(FFSpecialShare, "fspecial_share", GroupLikwid, false)
	set(FF32ShareDyn, "f32_share_dyn", GroupLikwid, false)
	set(FVecFPOpsPerCycle, "vec_fp_ops_per_cycle", GroupLikwid, false)

	set(FLoopInstr, "loop_instr", GroupMAQAO, false)
	set(FEstIPCL1, "est_ipc_l1", GroupMAQAO, false)
	set(FBytesStoredPerCycle, "bytes_stored_per_cycle", GroupMAQAO, false)
	set(FBytesLoadedPerCycle, "bytes_loaded_per_cycle", GroupMAQAO, false)
	set(FDepStallCycles, "dep_stall_cycles", GroupMAQAO, false)
	set(FChainCyclesPerIter, "chain_cycles_per_iter", GroupMAQAO, false)
	set(FCyclesPerIterL1, "cycles_per_iter_l1", GroupMAQAO, false)
	set(FPressureP0, "pressure_p0", GroupMAQAO, false)
	set(FPressureP1, "pressure_p1", GroupMAQAO, false)
	set(FPressureLoad, "pressure_load", GroupMAQAO, false)
	set(FPressureStore, "pressure_store", GroupMAQAO, false)
	set(FPressureInt, "pressure_int", GroupMAQAO, false)
	set(FNumFPDiv, "num_fp_div", GroupMAQAO, false)
	set(FNumSpecial, "num_special", GroupMAQAO, false)
	set(FNumSD, "num_sd", GroupMAQAO, false)
	set(FAddSubMulRatio, "add_sub_mul_ratio", GroupMAQAO, false)
	set(FVecRatioMul, "vec_ratio_mul", GroupMAQAO, false)
	set(FVecRatioAdd, "vec_ratio_add", GroupMAQAO, false)
	set(FVecRatioOther, "vec_ratio_other", GroupMAQAO, false)
	set(FVecRatioInt, "vec_ratio_int", GroupMAQAO, false)
	set(FVecRatioAll, "vec_ratio_all", GroupMAQAO, false)
	set(FF32ShareStatic, "f32_share_static", GroupMAQAO, false)
	set(FRegistersUsed, "registers_used", GroupMAQAO, false)
	set(FLoadsPerIter, "loads_per_iter", GroupMAQAO, false)
	set(FStoresPerIter, "stores_per_iter", GroupMAQAO, false)
	set(FFPOpsPerIter, "fp_ops_per_iter", GroupMAQAO, false)
	set(FIntOpsPerIter, "int_ops_per_iter", GroupMAQAO, false)
	set(FGatherLoadsPerIter, "gather_loads_per_iter", GroupMAQAO, false)
	set(FAvgVecLanes, "avg_vec_lanes", GroupMAQAO, false)
	set(FReductionShare, "reduction_share", GroupMAQAO, false)
	set(FRecurrenceShare, "recurrence_share", GroupMAQAO, false)
	set(FInstrPerFP, "instr_per_fp", GroupMAQAO, false)

	set(FStrideUnitShare, "stride_unit_share", GroupStructure, false)
	set(FStrideConstShare, "stride_const_share", GroupStructure, false)
	set(FStrideIndirectShare, "stride_indirect_share", GroupStructure, false)
	set(FStrideOtherShare, "stride_other_share", GroupStructure, false)
	set(FNumInnerLoops, "num_inner_loops", GroupStructure, false)
	set(FNestDepth, "nest_depth", GroupStructure, false)
	set(FEstInnerTrip, "est_inner_trip", GroupStructure, true)
	set(FNumStatements, "num_statements", GroupStructure, false)
	set(FNumArrays, "num_arrays", GroupStructure, false)
	set(FDimensionality, "dimensionality", GroupStructure, false)
	return d
}

// Catalog returns the descriptor list (do not mutate).
func Catalog() []Descriptor { return catalog }

// ByName returns the descriptor for a feature name.
func ByName(name string) (Descriptor, error) {
	for _, d := range catalog {
		if d.Name == name {
			return d, nil
		}
	}
	return Descriptor{}, fmt.Errorf("features: unknown feature %q", name)
}

// logScale compresses wide-dynamic-range positive values.
func logScale(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Log10(1 + v)
}

// Assemble builds the full 76-entry feature vector for one codelet
// from its reference-architecture measurement (Likwid role), static
// analysis (MAQAO role) and IR structure.
func Assemble(p *ir.Program, c *ir.Codelet, meas *sim.Measurement, st maqao.Static) []float64 {
	dyn := metrics.Derive(meas.Counters)
	ctr := meas.Counters
	v := make([]float64, NumFeatures)

	v[FExecSeconds] = dyn.Seconds
	v[FCPI] = dyn.CyclesPerInstr
	v[FMFLOPS] = dyn.MFLOPS
	v[FVecFPShare] = dyn.VecFPShare
	v[FL1MissRate] = dyn.L1MissRate
	v[FL2BandwidthMBs] = dyn.L2BandwidthMBs
	v[FL3BandwidthMBs] = dyn.L3BandwidthMBs
	v[FL3MissRate] = dyn.L3MissRate
	v[FMemBandwidthMBs] = dyn.MemBandwidthMBs
	v[FMemAccessPerInstr] = dyn.MemAccessPerInstr
	v[FOpIntensity] = dyn.OpIntensity
	v[FL1HitRate] = 1 - dyn.L1MissRate
	if len(ctr.LevelMisses) > 1 {
		l2 := ctr.LevelHits[1] + ctr.LevelMisses[1]
		if l2 > 0 {
			v[FL2MissRate] = float64(ctr.LevelMisses[1]) / float64(l2)
		}
	}
	if t := ctr.MemAccesses + ctr.MemWritebacks; t > 0 {
		v[FMemWritebackShare] = float64(ctr.MemWritebacks) / float64(t)
	}
	if ctr.Instructions > 0 {
		v[FLoadsPerInstr] = ctr.MemLoads / ctr.Instructions
		v[FStoresPerInstr] = ctr.MemStores / ctr.Instructions
		v[FFPPerInstr] = float64(ctr.Ops.FPOps()) / ctr.Instructions
		v[FIntPerInstr] = float64(ctr.Ops.IntOps) / ctr.Instructions
	}
	if ctr.MemStores > 0 {
		v[FLoadStoreRatio] = ctr.MemLoads / ctr.MemStores
	} else {
		v[FLoadStoreRatio] = ctr.MemLoads
	}
	v[FInstrPerInvocation] = ctr.Instructions
	v[FCyclesPerInvocation] = ctr.Cycles
	v[FFPOpsPerInvocation] = float64(ctr.Ops.FPOps())
	v[FMemBytesPerInvocation] = float64(ctr.MemAccesses+ctr.MemWritebacks) * 64
	v[FWorkingSetBytes] = float64(meas.WorkingSetBytes)
	if ctr.Cycles > 0 {
		v[FComputeShare] = ctr.ComputeCycles / ctr.Cycles
		v[FBandwidthShare] = ctr.BandwidthCycles / ctr.Cycles
		v[FLatencyShare] = ctr.ExposedLatCycles / ctr.Cycles
	}
	if fp := float64(ctr.Ops.FPOps()); fp > 0 {
		v[FFAddShare] = float64(ctr.Ops.FAdd) / fp
		v[FFMulShare] = float64(ctr.Ops.FMul) / fp
		v[FFDivShare] = float64(ctr.Ops.FDiv) / fp
		v[FFSqrtShare] = float64(ctr.Ops.FSqrt) / fp
		v[FFSpecialShare] = float64(ctr.Ops.FSpecial) / fp
		v[FF32ShareDyn] = float64(ctr.Ops.F32Ops) / fp
	}
	if ctr.Cycles > 0 {
		v[FVecFPOpsPerCycle] = ctr.VecFPOps / ctr.Cycles
	}

	v[FLoopInstr] = st.LoopInstr
	v[FEstIPCL1] = st.EstIPCL1
	v[FBytesStoredPerCycle] = st.BytesStoredPerCycle
	v[FBytesLoadedPerCycle] = st.BytesLoadedPerCycle
	v[FDepStallCycles] = st.DepStallCycles
	v[FChainCyclesPerIter] = st.ChainCyclesPerIter
	v[FCyclesPerIterL1] = st.CyclesPerIterL1
	v[FPressureP0] = st.PressureP0
	v[FPressureP1] = st.PressureP1
	v[FPressureLoad] = st.PressureLoad
	v[FPressureStore] = st.PressureStore
	v[FPressureInt] = st.PressureInt
	v[FNumFPDiv] = st.NumFPDiv
	v[FNumSpecial] = st.NumSpecial
	v[FNumSD] = st.NumSD
	v[FAddSubMulRatio] = st.AddSubMulRatio
	v[FVecRatioMul] = st.VecRatioMul
	v[FVecRatioAdd] = st.VecRatioAdd
	v[FVecRatioOther] = st.VecRatioOther
	v[FVecRatioInt] = st.VecRatioInt
	v[FVecRatioAll] = st.VecRatioAll
	v[FF32ShareStatic] = st.F32Share
	v[FRegistersUsed] = st.RegistersUsed
	v[FLoadsPerIter] = st.LoadsPerIter
	v[FStoresPerIter] = st.StoresPerIter
	v[FFPOpsPerIter] = st.FPOpsPerIter
	v[FIntOpsPerIter] = st.IntOpsPerIter
	v[FGatherLoadsPerIter] = st.GatherLoadsPerIter
	v[FAvgVecLanes] = st.AvgVecLanes
	v[FReductionShare] = st.ReductionShare
	v[FRecurrenceShare] = st.RecurrenceShare
	if st.FPOpsPerIter > 0 {
		v[FInstrPerFP] = st.LoopInstr / st.FPOpsPerIter
	} else {
		v[FInstrPerFP] = st.LoopInstr
	}

	fillStructural(v, p, c)

	for i, d := range catalog {
		if d.Log {
			v[i] = logScale(v[i])
		}
	}
	return v
}

// fillStructural computes the IR-level access-pattern features.
func fillStructural(v []float64, p *ir.Program, c *ir.Codelet) {
	inner := c.InnermostLoops()
	v[FNumInnerLoops] = float64(len(inner))

	depth := 0
	var unit, constS, indirect, other, total float64
	var stmts float64
	arrays := map[string]bool{}
	maxDim := 0
	tripSum := 0.0
	for _, lc := range inner {
		if d := len(lc.Outer) + 1; d > depth {
			depth = d
		}
		sum := p.Accesses(lc)
		all := append(append([]ir.RefAccess(nil), sum.Loads...), sum.Stores...)
		for _, a := range all {
			if len(a.Ref.Index) == 0 {
				continue // register-allocated scalar
			}
			total++
			arrays[a.Ref.Array] = true
			if len(a.Ref.Index) > maxDim {
				maxDim = len(a.Ref.Index)
			}
			switch a.Stride.Kind {
			case ir.StrideIndirect:
				indirect++
			case ir.StrideConst:
				constS++
			default:
				if a.Stride.Elems == 1 || a.Stride.Elems == -1 {
					unit++
				} else {
					other++
				}
			}
		}
		for _, s := range lc.Loop.Body {
			if _, ok := s.(*ir.Assign); ok {
				stmts++
			}
		}
		tripSum += lc.EstTrip(p.Params)
	}
	if total > 0 {
		v[FStrideUnitShare] = unit / total
		v[FStrideConstShare] = constS / total
		v[FStrideIndirectShare] = indirect / total
		v[FStrideOtherShare] = other / total
	}
	v[FNestDepth] = float64(depth)
	if len(inner) > 0 {
		v[FEstInnerTrip] = tripSum / float64(len(inner))
	}
	v[FNumStatements] = stmts
	v[FNumArrays] = float64(len(arrays))
	v[FDimensionality] = float64(maxDim)
}

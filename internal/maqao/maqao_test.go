package maqao

import (
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/ir"
)

func build(t *testing.T, name string, body func(p *ir.Program) *ir.Loop) (*ir.Program, *ir.Codelet) {
	t.Helper()
	p := ir.NewProgram("t")
	p.SetParam("n", 10000)
	c := &ir.Codelet{Name: name, Invocations: 1, Loop: body(p)}
	if err := p.AddCodelet(c); err != nil {
		t.Fatal(err)
	}
	return p, c
}

func TestDivCount(t *testing.T) {
	p, c := build(t, "div", func(p *ir.Program) *ir.Loop {
		p.AddArray("a", ir.F64, ir.AV("n"))
		p.AddArray("b", ir.F64, ir.AV("n"))
		return &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: ir.Div(p.LoadE("b", ir.V("i")), p.LoadE("a", ir.V("i")))},
		}}
	})
	s := Analyze(p, c, arch.Reference())
	if s.NumFPDiv != 1 {
		t.Errorf("NumFPDiv = %g, want 1", s.NumFPDiv)
	}
	if s.EstIPCL1 <= 0 {
		t.Error("EstIPCL1 not positive")
	}
}

func TestVectorizedLoopHasNoSD(t *testing.T) {
	p, c := build(t, "axpy", func(p *ir.Program) *ir.Loop {
		p.AddArray("a", ir.F64, ir.AV("n"))
		p.AddArray("b", ir.F64, ir.AV("n"))
		return &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")),
				RHS: ir.Add(p.LoadE("a", ir.V("i")), ir.Mul(ir.CF(2), p.LoadE("b", ir.V("i"))))},
		}}
	})
	s := Analyze(p, c, arch.Reference())
	if s.NumSD != 0 {
		t.Errorf("vectorized DP loop reports %g SD instructions", s.NumSD)
	}
	if s.VecRatioAll != 1 {
		t.Errorf("VecRatioAll = %g", s.VecRatioAll)
	}
	if s.AddSubMulRatio != 1 {
		t.Errorf("AddSubMulRatio = %g, want 1 (one add, one mul)", s.AddSubMulRatio)
	}
}

// TestVectorizationRatios checks the trip-weighted vectorization ratios at
// their two ends: a vectorized dot-product reduction has every mul and
// add in vector form, and a loop-carried recurrence has none.
func TestVectorizationRatios(t *testing.T) {
	p, c := build(t, "dot", func(p *ir.Program) *ir.Loop {
		p.AddArray("x", ir.F64, ir.AV("n"))
		p.AddArray("y", ir.F64, ir.AV("n"))
		p.AddScalar("s", ir.F64)
		return &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("s"), RHS: ir.Add(p.LoadE("s"), ir.Mul(p.LoadE("x", ir.V("i")), p.LoadE("y", ir.V("i"))))},
		}}
	})
	s := Analyze(p, c, arch.Nehalem())
	if s.VecRatioMul != 1 || s.VecRatioAdd != 1 {
		t.Errorf("fully vectorized reduction: ratios mul=%g add=%g", s.VecRatioMul, s.VecRatioAdd)
	}
	p2, c2 := build(t, "rec", func(p *ir.Program) *ir.Loop {
		p.AddArray("a", ir.F64, ir.AV("n"))
		p.AddArray("b", ir.F64, ir.AV("n"))
		return &ir.Loop{Var: "i", Lower: ir.AC(1), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{
				LHS: p.Ref("a", ir.V("i")),
				RHS: ir.Add(ir.Mul(p.LoadE("a", ir.Sub(ir.V("i"), ir.CI(1))), ir.CF(0.5)), p.LoadE("b", ir.V("i"))),
			},
		}}
	})
	s2 := Analyze(p2, c2, arch.Nehalem())
	if s2.VecRatioAll != 0 {
		t.Errorf("scalar recurrence: vec ratio = %g, want 0", s2.VecRatioAll)
	}
}

func TestScalarDPLoopReportsSD(t *testing.T) {
	p, c := build(t, "rec", func(p *ir.Program) *ir.Loop {
		p.AddArray("a", ir.F64, ir.AV("n"))
		return &ir.Loop{Var: "i", Lower: ir.AC(1), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")),
				RHS: ir.Mul(p.LoadE("a", ir.Sub(ir.V("i"), ir.CI(1))), ir.CF(0.5))},
		}}
	})
	s := Analyze(p, c, arch.Reference())
	if s.NumSD == 0 {
		t.Error("scalar DP recurrence reports no SD instructions")
	}
	if s.DepStallCycles <= 0 {
		t.Error("recurrence shows no dependency stalls")
	}
	if s.RecurrenceShare != 1 {
		t.Errorf("RecurrenceShare = %g", s.RecurrenceShare)
	}
}

func TestStorePressureAndBytes(t *testing.T) {
	p, c := build(t, "set", func(p *ir.Program) *ir.Loop {
		p.AddArray("a", ir.F64, ir.AV("n"))
		return &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: ir.CF(0)},
		}}
	})
	s := Analyze(p, c, arch.Reference())
	if s.BytesStoredPerCycle <= 0 {
		t.Error("no store bytes per cycle")
	}
	if s.StoresPerIter != 1 || s.LoadsPerIter != 0 {
		t.Errorf("loads/stores per iter = %g/%g", s.LoadsPerIter, s.StoresPerIter)
	}
	if s.PressureStore <= 0 {
		t.Error("no store port pressure")
	}
}

func TestTriangularWeighting(t *testing.T) {
	// A nest with two innermost loops of different shapes still gets
	// finite, positive aggregates.
	p, c := build(t, "two", func(p *ir.Program) *ir.Loop {
		p.AddArray("m", ir.F64, ir.AV("n"))
		return &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AC(100), Body: []ir.Stmt{
			&ir.Loop{Var: "j", Lower: ir.AC(0), Upper: ir.AV("i"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("m", ir.V("j")), RHS: ir.CF(1)},
			}},
			&ir.Loop{Var: "k", Lower: ir.AC(0), Upper: ir.AC(50), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("m", ir.V("k")), RHS: ir.CF(2)},
			}},
		}}
	})
	s := Analyze(p, c, arch.Reference())
	if s.LoopInstr <= 0 || s.CyclesPerIterL1 <= 0 {
		t.Errorf("aggregates not positive: %+v", s)
	}
}

func TestGatherCounted(t *testing.T) {
	p, c := build(t, "gather", func(p *ir.Program) *ir.Loop {
		p.AddArray("a", ir.F64, ir.AV("n"))
		p.AddArray("v", ir.F64, ir.AV("n"))
		p.AddArray("idx", ir.I64, ir.AV("n"))
		return &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: p.LoadE("v", p.LoadE("idx", ir.V("i")))},
		}}
	})
	s := Analyze(p, c, arch.Reference())
	if s.GatherLoadsPerIter != 1 {
		t.Errorf("GatherLoadsPerIter = %g", s.GatherLoadsPerIter)
	}
	if s.VecRatioAll != 0 {
		t.Errorf("gather loop vectorized: %g", s.VecRatioAll)
	}
}

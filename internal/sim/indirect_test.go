package sim

import (
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/ir"
)

// indirectKernel builds a kernel whose index expression exercises the
// given integer operations, forcing the indirect (compiled-closure)
// address path.
func indirectKernel(t *testing.T, index func(p *ir.Program) ir.Expr) (*ir.Program, *ir.Codelet) {
	t.Helper()
	p := ir.NewProgram("t")
	p.SetParam("n", 4096)
	p.AddArray("dst", ir.F64, ir.AV("n"))
	p.AddArray("v", ir.F64, ir.AT("n", 2))
	idx := p.AddArray("idx", ir.I64, ir.AV("n"))
	idx.Init = ir.IntInit{Kind: ir.IntInitMod, Bound: ir.AC(997)}
	c := &ir.Codelet{
		Name: "ind", Invocations: 1,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("dst", ir.V("i")), RHS: p.LoadE("v", index(p))},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		t.Fatal(err)
	}
	return p, c
}

// TestIndirectIndexOperators covers the integer-expression compiler's
// operator set: every index form must execute without error and touch
// memory.
func TestIndirectIndexOperators(t *testing.T) {
	load := func(p *ir.Program) ir.Expr { return p.LoadE("idx", ir.V("i")) }
	cases := map[string]func(p *ir.Program) ir.Expr{
		"add":  func(p *ir.Program) ir.Expr { return ir.Add(load(p), ir.CI(1)) },
		"sub":  func(p *ir.Program) ir.Expr { return ir.Sub(load(p), ir.CI(1)) },
		"mul":  func(p *ir.Program) ir.Expr { return ir.Mul(load(p), ir.CI(2)) },
		"mod":  func(p *ir.Program) ir.Expr { return ir.Mod(load(p), ir.CI(37)) },
		"and":  func(p *ir.Program) ir.Expr { return ir.And(load(p), ir.CI(255)) },
		"shr":  func(p *ir.Program) ir.Expr { return ir.Shr(load(p), ir.CI(2)) },
		"min":  func(p *ir.Program) ir.Expr { return ir.MinE(load(p), ir.CI(100)) },
		"max":  func(p *ir.Program) ir.Expr { return ir.MaxE(load(p), ir.CI(5)) },
		"neg":  func(p *ir.Program) ir.Expr { return ir.MaxE(ir.Neg(load(p)), ir.CI(0)) },
		"abs":  func(p *ir.Program) ir.Expr { return ir.Abs(ir.Sub(load(p), ir.CI(500))) },
		"divi": func(p *ir.Program) ir.Expr { return ir.Div(load(p), ir.CI(3)) },
	}
	for name, ix := range cases {
		t.Run(name, func(t *testing.T) {
			p, c := indirectKernel(t, ix)
			res, err := Measure(p, c, Options{Machine: arch.Nehalem(), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.MemLoads == 0 {
				t.Error("no loads executed")
			}
		})
	}
}

// TestIndirectDivModByZeroSafe: data-dependent divide/mod by zero in
// an index evaluates to zero rather than crashing the simulator.
func TestIndirectDivModByZeroSafe(t *testing.T) {
	for _, op := range []ir.BinOp{ir.OpDiv, ir.OpMod} {
		p := ir.NewProgram("t")
		p.SetParam("n", 256)
		p.AddArray("dst", ir.F64, ir.AV("n"))
		p.AddArray("v", ir.F64, ir.AV("n"))
		p.AddArray("z", ir.I64, ir.AV("n")) // zero-initialized divisor
		var idx ir.Expr = &ir.Bin{Op: op, A: ir.V("i"), B: p.LoadE("z", ir.V("i"))}
		c := &ir.Codelet{
			Name: "divzero", Invocations: 1,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("dst", ir.V("i")), RHS: p.LoadE("v", idx)},
			}},
		}
		if err := p.AddCodelet(c); err != nil {
			t.Fatal(err)
		}
		if _, err := Measure(p, c, Options{Machine: arch.Atom(), Seed: 1}); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
	}
}

// TestIndirectOutOfRangeReadsZero: an index pointing outside the data
// array reads as zero (documented defensive behavior).
func TestIndirectOutOfRangeReadsZero(t *testing.T) {
	p := ir.NewProgram("t")
	p.SetParam("n", 256)
	p.AddArray("dst", ir.F64, ir.AV("n"))
	p.AddArray("v", ir.F64, ir.AT("n", 4))
	p.AddArray("big", ir.I64, ir.AV("n")) // zero contents
	idx := ir.Add(ir.Mul(p.LoadE("big", ir.V("i")), ir.CI(1000000)), ir.V("i"))
	c := &ir.Codelet{
		Name: "oob", Invocations: 1,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("dst", ir.V("i")), RHS: p.LoadE("v", p.LoadE("big", idx))},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(p, c, Options{Machine: arch.Core2(), Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestUnsupportedIndexRejected: float operations inside an index are
// a structured error, not a panic.
func TestUnsupportedIndexRejected(t *testing.T) {
	p := ir.NewProgram("t")
	p.SetParam("n", 64)
	p.AddArray("dst", ir.F64, ir.AV("n"))
	p.AddArray("v", ir.F64, ir.AV("n"))
	p.AddArray("f", ir.F64, ir.AV("n"))
	idx := ir.ToI(ir.Sqrt(p.LoadE("f", ir.V("i"))))
	c := &ir.Codelet{
		Name: "floatidx", Invocations: 1,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("dst", ir.V("i")), RHS: p.LoadE("v", idx)},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(p, c, Options{Machine: arch.Nehalem(), Seed: 1}); err == nil {
		t.Error("float-typed index computation accepted by the simulator")
	}
}

func TestModeString(t *testing.T) {
	if ModeInApp.String() != "in-app" || ModeStandalone.String() != "standalone" {
		t.Error("mode names wrong")
	}
}

package ir

import (
	"strings"
	"testing"
)

// buildDotProduct returns a program with a dot-product codelet:
//
//	for i in [0, n): acc = acc + x[i]*y[i]
func buildDotProduct(t *testing.T) (*Program, *Codelet) {
	t.Helper()
	p := NewProgram("test")
	p.SetParam("n", 1000)
	p.AddArray("x", F64, AV("n"))
	p.AddArray("y", F64, AV("n"))
	p.AddScalar("acc", F64)
	c := &Codelet{
		Name:        "dot",
		Invocations: 10,
		Loop: &Loop{
			Var: "i", Lower: AC(0), Upper: AV("n"),
			Body: []Stmt{
				&Assign{
					LHS: p.Ref("acc"),
					RHS: Add(p.LoadE("acc"), Mul(p.LoadE("x", V("i")), p.LoadE("y", V("i")))),
				},
			},
		},
	}
	if err := p.AddCodelet(c); err != nil {
		t.Fatalf("AddCodelet: %v", err)
	}
	return p, c
}

func TestDTypeSizes(t *testing.T) {
	if I64.Size() != 8 || F32.Size() != 4 || F64.Size() != 8 {
		t.Error("unexpected dtype sizes")
	}
	if I64.IsFloat() || !F32.IsFloat() || !F64.IsFloat() {
		t.Error("IsFloat misclassifies")
	}
}

func TestAffineAlgebra(t *testing.T) {
	a := AV("i").ScaleK(2).PlusK(3) // 2i+3
	b := AV("i").Plus(AV("n"))      // i+n
	sum := a.Plus(b)                // 3i+n+3
	env := map[string]int64{"i": 5, "n": 100}
	if got := sum.Eval(env); got != 3*5+100+3 {
		t.Errorf("Eval = %d", got)
	}
	if sum.Coeff("i") != 3 || sum.Coeff("n") != 1 || sum.Coeff("zz") != 0 {
		t.Error("Coeff wrong")
	}
	if !a.Minus(a).IsConst() || a.Minus(a).K != 0 {
		t.Error("a-a should be the zero constant")
	}
	if !AC(4).Equal(AC(2).PlusK(2)) {
		t.Error("Equal on constants")
	}
	if AV("i").Equal(AV("j")) {
		t.Error("distinct vars compare equal")
	}
}

func TestAffineString(t *testing.T) {
	s := AV("i").ScaleK(2).Plus(AV("n")).PlusK(-1).String()
	for _, want := range []string{"2*i", "n", "-1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if AC(0).String() != "0" {
		t.Errorf("zero renders as %q", AC(0).String())
	}
}

func TestAffineEvalPanicsOnUnbound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unbound var")
		}
	}()
	AV("ghost").Eval(map[string]int64{})
}

func TestExprAffine(t *testing.T) {
	// 2*i + j - 3 is affine.
	e := Sub(Add(Mul(CI(2), V("i")), V("j")), CI(3))
	aff, ok := ExprAffine(e)
	if !ok {
		t.Fatal("expected affine")
	}
	if aff.Coeff("i") != 2 || aff.Coeff("j") != 1 || aff.K != -3 {
		t.Errorf("got %v", aff)
	}
	// i*j is not affine.
	if _, ok := ExprAffine(Mul(V("i"), V("j"))); ok {
		t.Error("i*j classified affine")
	}
}

func TestExprAffineIndirect(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 10)
	p.AddArray("idx", I64, AV("n"))
	if _, ok := ExprAffine(p.LoadE("idx", V("i"))); ok {
		t.Error("load classified affine")
	}
}

func TestTypedConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixing f64 and i64 should panic")
		}
	}()
	Add(CF(1), CI(1))
}

func TestIntegerOpsRejectFloats(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mod on floats should panic")
		}
	}()
	Mod(CF(1), CF(2))
}

func TestValidateCatchesUnboundVar(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 10)
	p.AddArray("a", F64, AV("n"))
	c := &Codelet{
		Name:        "bad",
		Invocations: 1,
		Loop: &Loop{
			Var: "i", Lower: AC(0), Upper: AV("n"),
			Body: []Stmt{
				&Assign{LHS: p.Ref("a", V("j")), RHS: CF(0)}, // j unbound
			},
		},
	}
	if err := p.AddCodelet(c); err == nil {
		t.Fatal("expected validation error for unbound index var")
	}
}

func TestValidateCatchesTypeMismatch(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 10)
	p.AddArray("a", F32, AV("n"))
	c := &Codelet{
		Name:        "bad",
		Invocations: 1,
		Loop: &Loop{
			Var: "i", Lower: AC(0), Upper: AV("n"),
			Body: []Stmt{
				&Assign{LHS: p.Ref("a", V("i")), RHS: CF(0)}, // f64 into f32
			},
		},
	}
	if err := p.AddCodelet(c); err == nil {
		t.Fatal("expected type mismatch error")
	}
}

func TestValidateCatchesShadowedLoopVar(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 10)
	p.AddArray("a", F64, AV("n"))
	c := &Codelet{
		Name:        "bad",
		Invocations: 1,
		Loop: &Loop{
			Var: "i", Lower: AC(0), Upper: AV("n"),
			Body: []Stmt{
				&Loop{Var: "i", Lower: AC(0), Upper: AV("n"), Body: []Stmt{
					&Assign{LHS: p.Ref("a", V("i")), RHS: CF(0)},
				}},
			},
		},
	}
	if err := p.AddCodelet(c); err == nil {
		t.Fatal("expected shadowing error")
	}
}

func TestRefArityPanics(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 10)
	p.AddArray("a", F64, AV("n"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected arity panic")
		}
	}()
	p.Ref("a", V("i"), V("j"))
}

func TestDuplicateArrayPanics(t *testing.T) {
	p := NewProgram("t")
	p.AddScalar("s", F64)
	defer func() {
		if recover() == nil {
			t.Fatal("expected duplicate panic")
		}
	}()
	p.AddScalar("s", F64)
}

func TestStrides(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 100)
	p.AddArray("v", F64, AV("n"))
	p.AddArray("m", F64, AV("n"), AV("n"))
	p.AddArray("idx", I64, AV("n"))

	cases := []struct {
		ref  *Ref
		kind StrideKind
		el   int64
	}{
		{p.Ref("v", V("i")), StrideAffine, 1},
		{p.Ref("v", Sub(V("n"), V("i"))), StrideAffine, -1},
		{p.Ref("v", Mul(CI(2), V("i"))), StrideAffine, 2},
		{p.Ref("v", V("j")), StrideConst, 0},
		{p.Ref("m", V("i"), V("j")), StrideAffine, 100}, // row walk: stride = LDA
		{p.Ref("m", V("j"), V("i")), StrideAffine, 1},
		{p.Ref("v", p.LoadE("idx", V("i"))), StrideIndirect, 0},
	}
	for k, c := range cases {
		s := p.RefStride(c.ref, "i")
		if s.Kind != c.kind {
			t.Errorf("case %d: kind = %v, want %v", k, s.Kind, c.kind)
		}
		if c.kind == StrideAffine && s.Elems != c.el {
			t.Errorf("case %d: stride = %d, want %d", k, s.Elems, c.el)
		}
	}
}

func TestStrideBytesUsesElementSize(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 100)
	p.AddArray("s", F32, AV("n"))
	if got := p.RefStride(p.Ref("s", V("i")), "i").Bytes; got != 4 {
		t.Errorf("f32 stride bytes = %d, want 4", got)
	}
}

func TestClassifyDepReduction(t *testing.T) {
	p, c := buildDotProduct(t)
	a := c.Loop.Body[0].(*Assign)
	if got := p.ClassifyDep(a, "i"); got != DepReduction {
		t.Errorf("dot product classified %v, want reduction", got)
	}
}

func TestClassifyDepRecurrence(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 100)
	p.AddArray("a", F64, AV("n"))
	// a[i] = a[i-1] * 2  (first-order recurrence, tridag pattern)
	st := &Assign{
		LHS: p.Ref("a", V("i")),
		RHS: Mul(p.LoadE("a", Sub(V("i"), CI(1))), CF(2)),
	}
	if got := p.ClassifyDep(st, "i"); got != DepRecurrence {
		t.Errorf("recurrence classified %v", got)
	}
}

func TestClassifyDepNone(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 100)
	p.AddArray("a", F64, AV("n"))
	p.AddArray("b", F64, AV("n"))
	// a[i] = b[i] + 1: independent.
	st := &Assign{LHS: p.Ref("a", V("i")), RHS: Add(p.LoadE("b", V("i")), CF(1))}
	if got := p.ClassifyDep(st, "i"); got != DepNone {
		t.Errorf("independent stmt classified %v", got)
	}
	// a[i] = a[i] * 2: same-location update, still vectorizable.
	st2 := &Assign{LHS: p.Ref("a", V("i")), RHS: Mul(p.LoadE("a", V("i")), CF(2))}
	if got := p.ClassifyDep(st2, "i"); got != DepNone {
		t.Errorf("in-place update classified %v", got)
	}
}

func TestClassifyDepIndirectStore(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 100)
	p.AddArray("hist", I64, AC(256))
	p.AddArray("key", I64, AV("n"))
	// hist[key[i]] = hist[key[i]] + 1: scatter with possible collisions.
	ix := p.LoadE("key", V("i"))
	st := &Assign{
		LHS: p.Ref("hist", ix),
		RHS: Add(p.LoadE("hist", p.LoadE("key", V("i"))), CI(1)),
	}
	if got := p.ClassifyDep(st, "i"); got != DepRecurrence {
		t.Errorf("scatter-update classified %v, want recurrence", got)
	}
}

func TestInnermostLoops(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 10)
	p.AddArray("m", F64, AV("n"), AV("n"))
	c := &Codelet{
		Name:        "nest",
		Invocations: 1,
		Loop: &Loop{
			Var: "i", Lower: AC(0), Upper: AV("n"),
			Body: []Stmt{
				&Loop{Var: "j", Lower: AC(0), Upper: AV("n"), Body: []Stmt{
					&Assign{LHS: p.Ref("m", V("i"), V("j")), RHS: CF(1)},
				}},
			},
		},
	}
	if err := p.AddCodelet(c); err != nil {
		t.Fatal(err)
	}
	inner := c.InnermostLoops()
	if len(inner) != 1 {
		t.Fatalf("got %d innermost loops", len(inner))
	}
	if inner[0].Loop.Var != "j" {
		t.Errorf("innermost var = %q", inner[0].Loop.Var)
	}
	if len(inner[0].Outer) != 1 || inner[0].Outer[0] != "i" {
		t.Errorf("outer vars = %v", inner[0].Outer)
	}
	all := inner[0].AllVars()
	if len(all) != 2 || all[0] != "i" || all[1] != "j" {
		t.Errorf("AllVars = %v", all)
	}
}

func TestTripCount(t *testing.T) {
	l := &Loop{Var: "i", Lower: AC(2), Upper: AV("n")}
	if got := l.TripCount(map[string]int64{"n": 10}); got != 8 {
		t.Errorf("trip = %d", got)
	}
	if got := l.TripCount(map[string]int64{"n": 1}); got != 0 {
		t.Errorf("negative trip clamped to %d, want 0", got)
	}
}

func TestEstTrip(t *testing.T) {
	params := map[string]int64{"n": 100, "m": 30}
	cases := []struct {
		name string
		lc   *LoopContext
		want float64
	}{
		// for i in [0,n): for j in [0,m) — the outer variable does
		// not reach the bounds.
		{"rectangular", &LoopContext{
			Loop: &Loop{Var: "j", Lower: AC(0), Upper: AV("m")}, Outer: []string{"i"},
		}, 30},
		// for i in [0,n): for j in [i+1,n) — i bound to 0 gives a
		// scale of 99, then i = 99/2 = 49 gives the midpoint trip.
		{"triangular", &LoopContext{
			Loop: &Loop{Var: "j", Lower: AV("i").PlusK(1), Upper: AV("n")}, Outer: []string{"i"},
		}, 50},
		{"empty clamped to 1", &LoopContext{
			Loop: &Loop{Var: "i", Lower: AV("n"), Upper: AV("m")},
		}, 1},
	}
	for _, tc := range cases {
		if got := tc.lc.EstTrip(params); got != tc.want {
			t.Errorf("%s: EstTrip = %g, want %g", tc.name, got, tc.want)
		}
	}
	if _, ok := params["i"]; ok {
		t.Error("EstTrip wrote an outer variable into params")
	}
}

func TestCountOps(t *testing.T) {
	p, c := buildDotProduct(t)
	_ = p
	a := c.Loop.Body[0].(*Assign)
	oc := CountAssign(a)
	if oc.FAdd != 1 || oc.FMul != 1 {
		t.Errorf("FAdd/FMul = %d/%d, want 1/1", oc.FAdd, oc.FMul)
	}
	if oc.Loads != 3 || oc.Stores != 1 {
		t.Errorf("Loads/Stores = %d/%d, want 3/1", oc.Loads, oc.Stores)
	}
	if oc.FDiv != 0 || oc.FSpecial != 0 {
		t.Error("unexpected div/special ops")
	}
}

func TestCountOpsSpecialAndPrecision(t *testing.T) {
	e := Sqrt(Div(CF32(1), CF32(2)))
	oc := CountOps(e)
	if oc.FDiv != 1 || oc.FSqrt != 1 {
		t.Errorf("div/sqrt = %d/%d", oc.FDiv, oc.FSqrt)
	}
	if oc.F32Ops != 2 {
		t.Errorf("F32Ops = %d, want 2", oc.F32Ops)
	}
}

func TestStrideSetRendering(t *testing.T) {
	p, c := buildDotProduct(t)
	inner := c.InnermostLoops()[0]
	set := p.StrideSet(inner)
	// dot product: accumulator (0) and two unit-stride loads (1).
	want := map[string]bool{"0": true, "1": true}
	if len(set) != 2 || !want[set[0]] || !want[set[1]] {
		t.Errorf("StrideSet = %v", set)
	}
}

func TestAccessSummary(t *testing.T) {
	p, c := buildDotProduct(t)
	sum := p.Accesses(c.InnermostLoops()[0])
	if len(sum.Loads) != 3 {
		t.Errorf("loads = %d, want 3", len(sum.Loads))
	}
	if len(sum.Stores) != 1 {
		t.Errorf("stores = %d, want 1", len(sum.Stores))
	}
}

func TestArrayFootprint(t *testing.T) {
	p := NewProgram("t")
	p.SetParam("n", 100)
	a := p.AddArray("m", F64, AV("n"), AC(50))
	if got := a.Elems(p.Params); got != 5000 {
		t.Errorf("Elems = %d", got)
	}
	if got := a.Bytes(p.Params); got != 40000 {
		t.Errorf("Bytes = %d", got)
	}
}

func TestDuplicateCodeletRejected(t *testing.T) {
	p, _ := buildDotProduct(t)
	c2 := &Codelet{Name: "dot", Invocations: 1, Loop: p.Codelets[0].Loop}
	p.Codelets = append(p.Codelets, c2)
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate codelet name accepted")
	}
}

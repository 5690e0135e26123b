package features

import (
	"strings"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/ir"
	"fgbs/internal/maqao"
	"fgbs/internal/sim"
)

func testCodelet(t *testing.T) (*ir.Program, *ir.Codelet) {
	t.Helper()
	p := ir.NewProgram("t")
	p.SetParam("n", 40000)
	p.AddArray("a", ir.F64, ir.AV("n"))
	p.AddArray("b", ir.F64, ir.AV("n"))
	c := &ir.Codelet{
		Name: "axpy", Invocations: 10,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{
				LHS: p.Ref("a", ir.V("i")),
				RHS: ir.Add(p.LoadE("a", ir.V("i")), ir.Mul(ir.CF(2), p.LoadE("b", ir.V("i")))),
			},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		t.Fatal(err)
	}
	return p, c
}

func assemble(t *testing.T, p *ir.Program, c *ir.Codelet) []float64 {
	t.Helper()
	m := arch.Reference()
	meas, err := sim.Measure(p, c, sim.Options{Machine: m, Mode: sim.ModeInApp, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return Assemble(p, c, meas, maqao.Analyze(p, c, m))
}

func TestCatalogComplete(t *testing.T) {
	if len(Catalog()) != NumFeatures {
		t.Fatalf("catalog has %d entries", len(Catalog()))
	}
	if NumFeatures != 76 {
		t.Fatalf("NumFeatures = %d, paper uses 76", NumFeatures)
	}
	seen := map[string]bool{}
	for i, d := range Catalog() {
		if d.Name == "" {
			t.Errorf("feature %d has no name", i)
		}
		if seen[d.Name] {
			t.Errorf("duplicate feature name %q", d.Name)
		}
		seen[d.Name] = true
		if d.Index != i {
			t.Errorf("feature %q index mismatch: %d != %d", d.Name, d.Index, i)
		}
	}
}

func TestCatalogGroups(t *testing.T) {
	counts := map[Group]int{}
	for _, d := range Catalog() {
		counts[d.Group]++
	}
	if counts[GroupLikwid] == 0 || counts[GroupMAQAO] == 0 || counts[GroupStructure] == 0 {
		t.Errorf("group counts: %v", counts)
	}
}

func TestAssembleLength(t *testing.T) {
	p, c := testCodelet(t)
	v := assemble(t, p, c)
	if len(v) != NumFeatures {
		t.Fatalf("vector length %d", len(v))
	}
	nonzero := 0
	for _, x := range v {
		if x != 0 {
			nonzero++
		}
	}
	if nonzero < 20 {
		t.Errorf("only %d nonzero features for a realistic codelet", nonzero)
	}
}

func TestAssembleKnownValues(t *testing.T) {
	p, c := testCodelet(t)
	v := assemble(t, p, c)
	if v[FVecRatioAll] != 1 {
		t.Errorf("fully vectorizable axpy: vec_ratio_all = %g", v[FVecRatioAll])
	}
	if v[FStrideUnitShare] != 1 {
		t.Errorf("all-unit-stride axpy: stride_unit_share = %g", v[FStrideUnitShare])
	}
	if v[FNumFPDiv] != 0 {
		t.Errorf("axpy has divs: %g", v[FNumFPDiv])
	}
	if v[FNestDepth] != 1 || v[FNumInnerLoops] != 1 {
		t.Errorf("nest shape: depth %g loops %g", v[FNestDepth], v[FNumInnerLoops])
	}
	if v[FNumArrays] != 2 {
		t.Errorf("num_arrays = %g", v[FNumArrays])
	}
}

func TestMaskBasics(t *testing.T) {
	m := MaskOf(0, 5, 75)
	if m.Count() != 3 {
		t.Errorf("count = %d", m.Count())
	}
	if !m.Get(5) || m.Get(6) {
		t.Error("bit lookup wrong")
	}
	idx := m.Indices()
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 5 || idx[2] != 75 {
		t.Errorf("indices = %v", idx)
	}
	full := make([]float64, NumFeatures)
	for i := range full {
		full[i] = float64(i)
	}
	got := m.Apply(full)
	if len(got) != 3 || got[0] != 0 || got[1] != 5 || got[2] != 75 {
		t.Errorf("Apply = %v", got)
	}
}

func TestMaskRoundTrip(t *testing.T) {
	m := MaskOf(1, 2, 3, 40, 70)
	s := m.String()
	if len(s) != NumFeatures {
		t.Fatalf("string length %d", len(s))
	}
	back, err := ParseMask(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Error("round trip changed mask")
	}
	if _, err := ParseMask("101"); err == nil {
		t.Error("short mask accepted")
	}
	if _, err := ParseMask(strings.Repeat("2", NumFeatures)); err == nil {
		t.Error("invalid character accepted")
	}
}

func TestMaskOfNames(t *testing.T) {
	m, err := MaskOfNames("mflops", "num_fp_div")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Get(FMFLOPS) || !m.Get(FNumFPDiv) || m.Count() != 2 {
		t.Error("MaskOfNames selected wrong bits")
	}
	if _, err := MaskOfNames("no_such_feature"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestPaperMask(t *testing.T) {
	m := PaperMask()
	if m.Count() != 14 {
		t.Fatalf("paper mask selects %d features, Table 2 has 14", m.Count())
	}
	// Spot-check Table 2 membership.
	for _, idx := range []int{FMFLOPS, FL2BandwidthMBs, FL3MissRate, FMemBandwidthMBs,
		FEstIPCL1, FNumFPDiv, FNumSD, FPressureP1, FVecRatioMul} {
		if !m.Get(idx) {
			t.Errorf("paper mask missing feature %s", Catalog()[idx].Name)
		}
	}
	// Exactly 4 Likwid features in Table 2.
	likwid := 0
	for _, i := range m.Indices() {
		if Catalog()[i].Group == GroupLikwid {
			likwid++
		}
	}
	if likwid != 4 {
		t.Errorf("paper mask has %d Likwid features, want 4", likwid)
	}
}

func TestAllMask(t *testing.T) {
	if AllMask().Count() != NumFeatures {
		t.Error("AllMask incomplete")
	}
}

func TestDivCodeletFeatures(t *testing.T) {
	p := ir.NewProgram("t")
	p.SetParam("n", 40000)
	p.AddArray("a", ir.F64, ir.AV("n"))
	p.AddArray("b", ir.F64, ir.AV("n"))
	c := &ir.Codelet{
		Name: "vdiv", Invocations: 10,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: ir.Div(ir.CF(1), p.LoadE("b", ir.V("i")))},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		t.Fatal(err)
	}
	v := assemble(t, p, c)
	if v[FNumFPDiv] != 1 {
		t.Errorf("num_fp_div = %g, want 1", v[FNumFPDiv])
	}
	if v[FFDivShare] == 0 {
		t.Error("fdiv_share zero for divide codelet")
	}
}

// The paper's core premise: different computation patterns produce
// distinguishable signatures under the Table 2 subset.
func TestSignaturesSeparatePatterns(t *testing.T) {
	p, axpy := testCodelet(t)
	vAxpy := PaperMask().Apply(assemble(t, p, axpy))

	p2 := ir.NewProgram("t2")
	p2.SetParam("n", 40000)
	p2.AddArray("a", ir.F64, ir.AV("n"))
	p2.AddArray("b", ir.F64, ir.AV("n"))
	rec := &ir.Codelet{
		Name: "rec", Invocations: 10,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(1), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{
				LHS: p2.Ref("a", ir.V("i")),
				RHS: ir.Add(ir.Mul(p2.LoadE("a", ir.Sub(ir.V("i"), ir.CI(1))), ir.CF(0.99)), p2.LoadE("b", ir.V("i"))),
			},
		}},
	}
	if err := p2.AddCodelet(rec); err != nil {
		t.Fatal(err)
	}
	vRec := PaperMask().Apply(assemble(t, p2, rec))

	same := true
	for i := range vAxpy {
		if vAxpy[i] != vRec[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("vectorized axpy and scalar recurrence produced identical signatures")
	}
}

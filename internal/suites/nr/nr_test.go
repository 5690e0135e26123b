package nr

import (
	"sync"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/extract"
	"fgbs/internal/ir"
	"fgbs/internal/maqao"
	"fgbs/internal/sim"
)

func TestSuiteShape(t *testing.T) {
	progs, codelets := Codelets()
	if len(codelets) != 28 {
		t.Fatalf("NR suite has %d codelets, want 28 (Table 3)", len(codelets))
	}
	if len(progs) != 28 {
		t.Fatalf("NR suite has %d programs, want 28 (one-to-one mapping)", len(progs))
	}
	seen := map[string]bool{}
	for i, c := range codelets {
		if progs[i].Codelets[0] != c {
			t.Errorf("program %d not aligned with codelet %q", i, c.Name)
		}
		if seen[c.Name] {
			t.Errorf("duplicate codelet %q", c.Name)
		}
		seen[c.Name] = true
		if c.Pattern == "" {
			t.Errorf("codelet %q has no computation pattern", c.Name)
		}
		if err := progs[i].Validate(); err != nil {
			t.Errorf("program %q invalid: %v", progs[i].Name, err)
		}
	}
	for _, want := range []string{
		"toeplz_1", "rstrct_29", "mprove_8", "toeplz_4", "realft_4", "toeplz_3",
		"svbksb_3", "lop_13", "toeplz_2", "four1_2", "tridag_2", "tridag_1",
		"ludcmp_4", "hqr_15", "relax2_26", "svdcmp_14", "svdcmp_13", "hqr_13",
		"hqr_12_sq", "jacobi_5", "hqr_12", "svdcmp_11", "elmhes_11", "mprove_9",
		"matadd_16", "svdcmp_6", "elmhes_10", "balanc_3",
	} {
		if !seen[want] {
			t.Errorf("missing Table 3 codelet %q", want)
		}
	}
}

func TestNoIllBehavedFlags(t *testing.T) {
	_, codelets := Codelets()
	for _, c := range codelets {
		if c.DatasetVariation != 0 || c.ContextSensitive {
			t.Errorf("NR codelet %q carries ill-behaved flags; the paper says all NR codelets are well-behaved", c.Name)
		}
	}
}

func TestPrecisionMix(t *testing.T) {
	// Table 3 has SP, DP and MP codelets; verify the suite reflects
	// the mix by checking specific entries.
	progs, codelets := Codelets()
	byName := map[string]int{}
	for i, c := range codelets {
		byName[c.Name] = i
	}
	if dt := progs[byName["svbksb_3"]].Array("u").DT; dt != ir.F32 {
		t.Errorf("svbksb_3 matrix is %v, want f32 (SP)", dt)
	}
	if dt := progs[byName["toeplz_1"]].Array("r").DT; dt != ir.F64 {
		t.Errorf("toeplz_1 is %v, want f64 (DP)", dt)
	}
	// MP: mprove_8 loads f32 and accumulates f64.
	p := progs[byName["mprove_8"]]
	if p.Array("a").DT != ir.F32 || p.Array("sdp").DT != ir.F64 {
		t.Error("mprove_8 does not mix precisions")
	}
}

func TestRecurrencesAreScalar(t *testing.T) {
	progs, codelets := Codelets()
	for i, c := range codelets {
		if c.Name != "tridag_1" && c.Name != "tridag_2" {
			continue
		}
		inner := c.InnermostLoops()[0]
		a := inner.Loop.Body[0].(*ir.Assign)
		if dep := progs[i].ClassifyDep(a, inner.Loop.Var); dep != ir.DepRecurrence {
			t.Errorf("%s classified %v, want recurrence", c.Name, dep)
		}
	}
}

// TestAllWellBehavedOnReference is the load-bearing property of the
// training suite: every extracted NR microbenchmark must reproduce
// its in-application time on the reference machine within the 10%
// tolerance (§4.1: "all the NR codelets are well-behaved").
func TestAllWellBehavedOnReference(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-heavy")
	}
	progs, codelets := Codelets()
	ref := arch.Reference()
	var wg sync.WaitGroup
	errs := make([]string, len(codelets))
	sem := make(chan struct{}, 8)
	for i := range codelets {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			p, c := progs[i], codelets[i]
			inApp, err := sim.Measure(p, c, sim.Options{Machine: ref, Mode: sim.ModeInApp, Seed: 1})
			if err != nil {
				errs[i] = err.Error()
				return
			}
			sa, err := sim.Measure(p, c, sim.Options{Machine: ref, Mode: sim.ModeStandalone, Seed: 1})
			if err != nil {
				errs[i] = err.Error()
				return
			}
			if extract.IllBehaved(sa.Seconds, inApp.Seconds) {
				errs[i] = c.Name + " is ill-behaved on the reference"
			}
			if inApp.Counters.Cycles < 25000 {
				errs[i] = c.Name + " too short to measure"
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}

// TestDividerClusterSlowestOnAtom checks the Table 3 cluster-10
// phenomenon: the vector-divide codelets suffer the worst Atom
// slowdowns of the vectorized kernels.
func TestDividerClusterSlowestOnAtom(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-heavy")
	}
	progs, codelets := Codelets()
	byName := map[string]int{}
	for i, c := range codelets {
		byName[c.Name] = i
	}
	speedup := func(name string) float64 {
		i := byName[name]
		ref, err := sim.Measure(progs[i], codelets[i], sim.Options{Machine: arch.Reference(), Mode: sim.ModeInApp, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		atom, err := sim.Measure(progs[i], codelets[i], sim.Options{Machine: arch.Atom(), Mode: sim.ModeInApp, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ref.Seconds / atom.Seconds
	}
	div := speedup("svdcmp_14")
	if div > 0.35 {
		t.Errorf("divide codelet Atom speedup %.3f too mild (paper: ~0.28)", div)
	}
	if div < 0.05 {
		t.Errorf("divide codelet Atom speedup %.3f implausibly harsh", div)
	}
}

// TestVectorizationClasses checks each codelet's vectorization against
// Table 3's Vec. column: V (fully vectorized), S (scalar), V+S
// (partial). The MAQAO-style ratio is computed on the reference
// architecture, as in the paper.
func TestVectorizationClasses(t *testing.T) {
	progs, codelets := Codelets()
	byName := map[string]int{}
	for i, c := range codelets {
		byName[c.Name] = i
	}
	ratio := func(name string) float64 {
		i := byName[name]
		return maqao.Analyze(progs[i], codelets[i], arch.Reference()).VecRatioAll
	}
	// mprove_8 and ludcmp_4 are "mostly vector" (60%/83%) in Table 3;
	// our lowering vectorizes their single reduction statement fully,
	// so they land in the V class here (recorded in EXPERIMENTS.md).
	fullyVector := []string{"toeplz_3", "svbksb_3", "lop_13", "svdcmp_14", "hqr_13",
		"hqr_12_sq", "jacobi_5", "hqr_12", "mprove_9", "matadd_16", "elmhes_10", "balanc_3",
		"mprove_8", "ludcmp_4"}
	for _, name := range fullyVector {
		if r := ratio(name); r < 0.95 {
			t.Errorf("%s: vec ratio %.2f, Table 3 marks it V (100%%)", name, r)
		}
	}
	scalar := []string{"toeplz_4", "realft_4", "toeplz_2", "four1_2", "tridag_1",
		"tridag_2", "hqr_15", "relax2_26", "svdcmp_11", "elmhes_11", "svdcmp_6"}
	for _, name := range scalar {
		if r := ratio(name); r > 0.05 {
			t.Errorf("%s: vec ratio %.2f, Table 3 marks it S (~0%%)", name, r)
		}
	}
	partial := []string{"toeplz_1"}
	for _, name := range partial {
		if r := ratio(name); r <= 0.05 || r >= 0.95 {
			t.Errorf("%s: vec ratio %.2f, Table 3 marks it V+S (partial)", name, r)
		}
	}
}

// TestStrideSignatures spot-checks Table 3's stride column.
func TestStrideSignatures(t *testing.T) {
	progs, codelets := Codelets()
	byName := map[string]int{}
	for i, c := range codelets {
		byName[c.Name] = i
	}
	strides := func(name string) map[string]bool {
		i := byName[name]
		out := map[string]bool{}
		for _, lc := range codelets[i].InnermostLoops() {
			for _, s := range progs[i].StrideSet(lc) {
				out[s] = true
			}
		}
		return out
	}
	// tridag_1: strides 0 & 1 (forward recurrence).
	if s := strides("tridag_1"); !s["1"] {
		t.Errorf("tridag_1 strides %v, want unit stride", s)
	}
	// toeplz_2: ascending and descending unit strides.
	if s := strides("toeplz_2"); !s["1"] || !s["-1"] {
		t.Errorf("toeplz_2 strides %v, want 1 and -1", s)
	}
	// realft_4: symmetric stride-2 walks.
	if s := strides("realft_4"); !s["2"] || !s["-2"] {
		t.Errorf("realft_4 strides %v, want 2 and -2", s)
	}
	// four1_2: stride 4.
	if s := strides("four1_2"); !s["4"] {
		t.Errorf("four1_2 strides %v, want 4", s)
	}
	// svdcmp_11: LDA stride (the matrix order).
	if s := strides("svdcmp_11"); !s["768"] {
		t.Errorf("svdcmp_11 strides %v, want LDA (768)", s)
	}
	// hqr_15: diagonal walk LDA+1.
	if s := strides("hqr_15"); !s["769"] {
		t.Errorf("hqr_15 strides %v, want LDA+1 (769)", s)
	}
}

// TestAtomSpeedupOrdering spot-checks the shape of Table 3's Atom
// speedup column: the memory-bound red-black sweep suffers most
// (paper: 0.12, the lowest), while the cache-resident diagonal update
// fares comparatively well (paper: 0.39).
func TestAtomSpeedupOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement-heavy")
	}
	progs, codelets := Codelets()
	byName := map[string]int{}
	for i, c := range codelets {
		byName[c.Name] = i
	}
	speedup := func(name string) float64 {
		i := byName[name]
		ref, err := sim.Measure(progs[i], codelets[i], sim.Options{Machine: arch.Reference(), Mode: sim.ModeInApp, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		atom, err := sim.Measure(progs[i], codelets[i], sim.Options{Machine: arch.Atom(), Mode: sim.ModeInApp, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ref.Seconds / atom.Seconds
	}
	relax := speedup("relax2_26")
	diag := speedup("hqr_15")
	if relax >= diag {
		t.Errorf("Atom speedups: relax2_26 %.2f not below hqr_15 %.2f (paper: 0.12 vs 0.39)", relax, diag)
	}
	// Every Atom speedup is a slowdown, within Table 3's broad range.
	for _, c := range codelets {
		s := speedup(c.Name)
		if s >= 1.0 || s < 0.03 {
			t.Errorf("%s: Atom speedup %.2f outside the plausible (0.03, 1) band", c.Name, s)
		}
	}
}

package poly

import (
	"strings"
	"sync"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/extract"
	"fgbs/internal/ir"
	"fgbs/internal/sim"
)

func TestSuiteShape(t *testing.T) {
	progs, codelets := Codelets()
	if len(codelets) != 18 {
		t.Fatalf("poly suite has %d codelets, want 18", len(codelets))
	}
	seen := map[string]bool{}
	for i, c := range codelets {
		if err := progs[i].Validate(); err != nil {
			t.Errorf("%s: %v", progs[i].Name, err)
		}
		if seen[c.Name] {
			t.Errorf("duplicate %q", c.Name)
		}
		seen[c.Name] = true
		if !strings.HasPrefix(c.Name, "poly_") {
			t.Errorf("codelet %q not poly-prefixed", c.Name)
		}
		if c.Pattern == "" || c.SourceRef == "" {
			t.Errorf("codelet %q missing metadata", c.Name)
		}
	}
}

func TestPatternFamilies(t *testing.T) {
	progs, codelets := Codelets()
	byName := map[string]int{}
	for i, c := range codelets {
		byName[c.Name] = i
	}
	// Recurrences stay scalar.
	for _, name := range []string{"poly_durbin", "poly_trisolv", "poly_deriche", "poly_adi"} {
		i := byName[name]
		inner := codelets[i].InnermostLoops()
		a := inner[len(inner)-1].Loop.Body[0].(*ir.Assign)
		if dep := progs[i].ClassifyDep(a, inner[len(inner)-1].Loop.Var); dep != ir.DepRecurrence {
			t.Errorf("%s classified %v, want recurrence", name, dep)
		}
	}
	// gemm's interchanged inner loop updates c[i][j] in place along j:
	// no inner-carried dependence, freely vectorizable.
	i := byName["poly_gemm"]
	lc := codelets[i].InnermostLoops()[0]
	a := lc.Loop.Body[0].(*ir.Assign)
	if dep := progs[i].ClassifyDep(a, lc.Loop.Var); dep != ir.DepNone {
		t.Errorf("gemm inner dep = %v, want none", dep)
	}
	// syrk keeps the k-innermost reduction form.
	i = byName["poly_syrk"]
	lc = codelets[i].InnermostLoops()[0]
	a = lc.Loop.Body[0].(*ir.Assign)
	if dep := progs[i].ClassifyDep(a, lc.Loop.Var); dep != ir.DepReduction {
		t.Errorf("syrk inner dep = %v, want reduction", dep)
	}
	// deriche is single precision.
	if progs[byName["poly_deriche"]].Array("y").DT != ir.F32 {
		t.Error("deriche not single precision")
	}
}

// TestAllMeasurableAndWellBehaved: poly codelets must clear the
// measurement floor and pass the extraction screening on the reference
// (the suite has no designed ill-behaved codelets).
func TestAllMeasurableAndWellBehaved(t *testing.T) {
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
			inApp, err := sim.Measure(progs[i], codelets[i],
				sim.Options{Machine: ref, Mode: sim.ModeInApp, Seed: 1})
			if err != nil {
				errs[i] = err.Error()
				return
			}
			sa, err := sim.Measure(progs[i], codelets[i],
				sim.Options{Machine: ref, Mode: sim.ModeStandalone, Seed: 1})
			if err != nil {
				errs[i] = err.Error()
				return
			}
			if inApp.Counters.Cycles < 25000 {
				errs[i] = codelets[i].Name + " below the measurement floor"
			}
			if extract.IllBehaved(sa.Seconds, inApp.Seconds) {
				errs[i] = codelets[i].Name + " ill-behaved on the reference"
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

// TestWideVectorLovesGemm: on the WideVec extension machine the
// vectorizable compute kernels speed up far more than the serial
// recurrences — the contrast that makes the suite interesting for the
// feature-generalization experiment.
func TestWideVectorLovesGemm(t *testing.T) {
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
		ref, err := sim.Measure(progs[i], codelets[i],
			sim.Options{Machine: arch.Reference(), Mode: sim.ModeInApp, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		wv, err := sim.Measure(progs[i], codelets[i],
			sim.Options{Machine: arch.WideVec(), Mode: sim.ModeInApp, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ref.Seconds / wv.Seconds
	}
	gemm := speedup("poly_gemm")
	durbin := speedup("poly_durbin")
	if gemm < 2*durbin {
		t.Errorf("WideVec speedups: gemm %.2f vs durbin %.2f — vector machine must favor vector code strongly",
			gemm, durbin)
	}
}

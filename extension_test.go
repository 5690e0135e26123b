package fgbs

// Extension experiments beyond the paper's evaluation, following its
// §5/§6 directions: a third benchmark suite (PolyBench-like), a joint
// multi-suite subsetting run exploiting inter-suite redundancy, and a
// wide-vector accelerator-like target probing how far the trained
// feature set generalizes. EXPERIMENTS.md records the outcomes under
// "Extensions".

import (
	"sync"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/features"
	"fgbs/internal/pipeline"
)

var (
	polyOnce sync.Once
	polyProf *Profile
	polyErr  error

	jointOnce sync.Once
	jointProf *Profile
	jointErr  error
)

func polyProfile(tb testing.TB) *Profile {
	tb.Helper()
	polyOnce.Do(func() {
		polyProf, polyErr = NewProfile(PolySuite(), Options{Seed: 1})
	})
	if polyErr != nil {
		tb.Fatal(polyErr)
	}
	return polyProf
}

func jointProfile(tb testing.TB) *Profile {
	tb.Helper()
	jointOnce.Do(func() {
		jointProf, jointErr = NewProfile(append(NASSuite(), PolySuite()...), Options{Seed: 1})
	})
	if jointErr != nil {
		tb.Fatal(jointErr)
	}
	return jointProf
}

// TestExtensionPolyGeneralization: the NR-style feature subset,
// chosen without ever seeing the poly kernels, subsets them
// accurately — the §6 claim that the method extends to other
// benchmark contexts.
func TestExtensionPolyGeneralization(t *testing.T) {
	skipIfRace(t)
	prof := polyProfile(t)
	if prof.N() != 18 {
		t.Fatalf("poly profile has %d codelets", prof.N())
	}
	sub := defaultSubset(t, prof)
	if sub.K() < 6 || sub.K() >= prof.N() {
		t.Errorf("poly elbow K = %d: no redundancy found", sub.K())
	}
	for _, ev := range evaluateAll(t, prof, sub) {
		if ev.Summary.Median > 0.08 {
			t.Errorf("%s: poly median error %.1f%%", ev.Target.Name, ev.Summary.Median*100)
		}
		if ev.Reduction.Total < 3 {
			t.Errorf("%s: poly reduction only x%.1f", ev.Target.Name, ev.Reduction.Total)
		}
	}
}

// TestExtensionJointSuiteRedundancy: clustering NAS and poly together
// needs fewer representatives than subsetting them separately — the
// paper's inter-application redundancy argument, lifted to whole
// suites.
func TestExtensionJointSuiteRedundancy(t *testing.T) {
	skipIfRace(t)
	nas := nasProfile(t)
	poly := polyProfile(t)
	joint := jointProfile(t)
	mask := DefaultFeatures()

	kNAS := defaultSubset(t, nas).RequestedK
	kPoly := defaultSubset(t, poly).RequestedK
	kJoint := defaultSubset(t, joint).RequestedK
	if kJoint >= kNAS+kPoly {
		t.Errorf("joint elbow K = %d, not below separate %d + %d: no inter-suite redundancy",
			kJoint, kNAS, kPoly)
	}

	sub, err := joint.Subset(mask, kJoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evaluateAll(t, joint, sub) {
		if ev.Summary.Median > 0.08 {
			t.Errorf("joint subsetting on %s: median error %.1f%%", ev.Target.Name, ev.Summary.Median*100)
		}
	}
	// At least one cluster must mix codelets from both suites (shared
	// representative across suites — the thing SimPoint cannot do).
	mixed := false
	for c := 0; c < sub.K(); c++ {
		hasNAS, hasPoly := false, false
		for i, l := range sub.Selection.Labels {
			if l != c {
				continue
			}
			if len(joint.Codelets[i].Name) >= 5 && joint.Codelets[i].Name[:5] == "poly_" {
				hasPoly = true
			} else {
				hasNAS = true
			}
		}
		if hasNAS && hasPoly {
			mixed = true
			break
		}
	}
	if !mixed {
		t.Error("no cluster mixes NAS and poly codelets; redundancy claim hollow")
	}
}

// TestExtensionWideVectorTarget: the paper's §5 wonders whether the
// reference-trained features survive "a completely different
// architecture such as a GPU". On the wide-vector accelerator model
// the subsetting still predicts accurately, and the architecture-
// independent characterization does at least as well — supporting the
// paper's proposed generalization.
func TestExtensionWideVectorTarget(t *testing.T) {
	skipIfRace(t)
	targets := append(arch.Targets(), arch.WideVec())
	prof, err := pipeline.NewProfile(NASSuite(), pipeline.Options{Seed: 1, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	wv, err := prof.TargetIndex("WideVec")
	if err != nil {
		t.Fatal(err)
	}

	evalWith := func(mask FeatureMask) float64 {
		sub, err := prof.Subset(mask, 0)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := prof.Evaluate(sub, wv)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Summary.Median
	}
	def := evalWith(DefaultFeatures())
	indep := evalWith(features.ArchIndependentMask())
	if def > 0.10 {
		t.Errorf("WideVec median error %.1f%% with default features", def*100)
	}
	if indep > 0.10 {
		t.Errorf("WideVec median error %.1f%% with arch-independent features", indep*100)
	}

	// The machine must actually be "completely different": per-codelet
	// speedups spread over a wide range (vector code flies, serial
	// code crawls).
	sub, err := prof.Subset(DefaultFeatures(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := prof.Evaluate(sub, wv)
	if err != nil {
		t.Fatal(err)
	}
	minS, maxS := 1e9, 0.0
	for i := range prof.Codelets {
		s := prof.RefInApp[i] / ev.Actual[i]
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if maxS/minS < 8 {
		t.Errorf("WideVec speedup spread %.1fx (%.2f..%.2f): target not different enough",
			maxS/minS, minS, maxS)
	}
}

// TestExtensionAutotune: the §6 auto-tuning context — compiler
// configurations as targets. Representatives measured under
// vectorizing and non-vectorizing builds must predict the per-codelet
// vectorize-or-not decision for the rest of the suite.
func TestExtensionAutotune(t *testing.T) {
	skipIfRace(t)
	targets := []*Machine{arch.Nehalem(), arch.NehalemNoVec()}
	prof, err := pipeline.NewProfile(NASSuite(), pipeline.Options{Seed: 1, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	sub := defaultSubset(t, prof)
	evVec := targetEval(t, prof, sub, "Nehalem")
	evNo := targetEval(t, prof, sub, "Nehalem -no-vec")

	decision := func(gain float64) bool { return gain > 1.05 }
	agree, matter := 0, 0
	for i := range prof.Codelets {
		pred := decision(evNo.Predicted[i] / evVec.Predicted[i])
		real := decision(evNo.Actual[i] / evVec.Actual[i])
		if pred == real {
			agree++
		}
		if evNo.Actual[i]/evVec.Actual[i] > 1.05 {
			matter++
		}
	}
	if frac := float64(agree) / float64(prof.N()); frac < 0.85 {
		t.Errorf("tuning decisions correct for only %.0f%% of codelets", frac*100)
	}
	if matter < 10 {
		t.Errorf("only %d codelets benefit from vectorization; the experiment needs contrast", matter)
	}
	// Scalar recurrences must not be predicted to benefit.
	for i, c := range prof.Codelets {
		if c.Name == "sp_x_solve" {
			if decision(evNo.Predicted[i] / evVec.Predicted[i]) {
				t.Error("recurrence sp_x_solve predicted to benefit from vectorization")
			}
		}
	}
}

// TestExtensionReferenceChoice: profiling on Sandy Bridge instead of
// Nehalem (with Nehalem becoming a target) must leave the method
// intact — the reference is a methodological choice, not a magic
// constant.
func TestExtensionReferenceChoice(t *testing.T) {
	skipIfRace(t)
	targets := []*Machine{arch.Nehalem(), arch.Atom(), arch.Core2()}
	prof, err := pipeline.NewProfile(NASSuite(), pipeline.Options{
		Seed: 1, Reference: arch.SandyBridge(), Targets: targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := defaultSubset(t, prof)
	if sub.K() < 10 || sub.K() > 30 {
		t.Errorf("elbow K = %d under the alternate reference", sub.K())
	}
	for _, ev := range evaluateAll(t, prof, sub) {
		if ev.Summary.Median > 0.08 {
			t.Errorf("%s: median error %.1f%% under Sandy Bridge reference",
				ev.Target.Name, ev.Summary.Median*100)
		}
	}
	// Nehalem, now a target, is predicted (slower than SB overall).
	ev := targetEval(t, prof, sub, "Nehalem")
	if ev.GeoMeanRealSpeedup > 0.7 {
		t.Errorf("Nehalem geomean speedup vs Sandy Bridge = %.2f, expected well below 1",
			ev.GeoMeanRealSpeedup)
	}
}

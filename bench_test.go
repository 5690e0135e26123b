package fgbs

// Benchmark harness: one benchmark per table and figure of the paper
// (see DESIGN.md's per-experiment index), each printing the artifact
// it regenerates, plus ablation benchmarks for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Profiling (the fixtures) is excluded from the timed region; the
// benchmarks time the analysis pipeline itself (clustering, selection,
// prediction, accounting).

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/cluster"
	"fgbs/internal/extract"
	"fgbs/internal/features"
	"fgbs/internal/ga"
	"fgbs/internal/pipeline"
	"fgbs/internal/report"
	"fgbs/internal/stage"
)

// logOnce prints an artifact a single time per benchmark name even
// though the benchmark body runs many iterations.
var logged sync.Map

func logArtifact(b *testing.B, render func(buf *bytes.Buffer) error) {
	b.Helper()
	if _, dup := logged.LoadOrStore(b.Name(), true); dup {
		return
	}
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", buf.String())
}

func BenchmarkTable1Architectures(b *testing.B) {
	logArtifact(b, func(buf *bytes.Buffer) error {
		return report.Table1(buf, arch.All())
	})
	for i := 0; i < b.N; i++ {
		for _, m := range arch.All() {
			if err := m.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable2FeatureGA(b *testing.B) {
	prof := nrProfile(b)
	fitness, err := prof.FeatureFitness("Atom", "Sandy Bridge")
	if err != nil {
		b.Fatal(err)
	}
	var best FeatureMask
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ga.Run(fitness, ga.Options{
			Population: 40, Generations: 10, MutationProb: 0.01, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		best = res.Best
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "GA-selected subset (%d features; benchmark-scale run, see cmd/fgbs t2 -full):\n", best.Count())
		return report.Table2(buf, best)
	})
}

func BenchmarkTable3NRClustering(b *testing.B) {
	prof := nrProfile(b)
	var sub *Subset
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sub, err = prof.Subset(DefaultFeatures(), 14)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ev := targetEval(b, prof, sub, "Atom")
	logArtifact(b, func(buf *bytes.Buffer) error {
		return report.Table3(buf, prof, sub, ev)
	})
}

func BenchmarkTable4NRPrediction(b *testing.B) {
	prof := nrProfile(b)
	elbow, err := prof.Elbow(DefaultFeatures())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := prof.Subset(DefaultFeatures(), 14)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := prof.Evaluate(sub, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "NR prediction errors (paper: K=14 medians 1.8%%/3.2%%, elbow K=24 medians 0%%):\n")
		return report.Table4(buf, prof, DefaultFeatures(), []int{14, elbow}, []string{"Atom", "Sandy Bridge"})
	})
}

func BenchmarkTable5ReductionBreakdown(b *testing.B) {
	prof := nasProfile(b)
	sub := defaultSubset(b, prof)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := range prof.Targets {
			if _, err := prof.Evaluate(sub, t); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "Reduction breakdown (paper: Atom x44.3 = x12 x3.7; Core 2 x24.7 = x8.7 x2.8; Sandy Bridge x22.5 = x6.3 x3.6):\n")
		return report.Table5(buf, prof, sub)
	})
}

func BenchmarkFigure2ClusterPrediction(b *testing.B) {
	prof := nrProfile(b)
	sub, err := prof.Subset(DefaultFeatures(), 14)
	if err != nil {
		b.Fatal(err)
	}
	var ev *pipeline.Eval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev = targetEval(b, prof, sub, "Atom")
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		return report.Figure2(buf, prof, sub, ev, []int{0, 1})
	})
}

func BenchmarkFigure3TradeoffSweep(b *testing.B) {
	prof := nasProfile(b)
	var pts []pipeline.SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = prof.SweepK(DefaultFeatures(), 2, 24)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elbow, err := prof.Elbow(DefaultFeatures())
	if err != nil {
		b.Fatal(err)
	}
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "Trade-off sweep (paper at elbow 18: Atom 8%%/x44, Core 2 3.9%%/x25, Sandy Bridge 5.8%%/x23):\n")
		return report.Figure3(buf, prof, pts, elbow)
	})
}

func BenchmarkFigure4CodeletPrediction(b *testing.B) {
	prof := nasProfile(b)
	sub := defaultSubset(b, prof)
	var ev *pipeline.Eval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev = targetEval(b, prof, sub, "Sandy Bridge")
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		return report.Figure4(buf, prof, ev)
	})
}

func BenchmarkFigure5ApplicationPrediction(b *testing.B) {
	prof := nasProfile(b)
	sub := defaultSubset(b, prof)
	var evals []*Eval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evals = evaluateAll(b, prof, sub)
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		return report.Figure5(buf, prof, evals)
	})
}

func BenchmarkFigure6GeomeanSpeedup(b *testing.B) {
	prof := nasProfile(b)
	sub := defaultSubset(b, prof)
	var evals []*Eval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evals = evaluateAll(b, prof, sub)
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "Geomean speedups (paper: Atom 0.15/0.19, Core 2 0.97/1.00, Sandy Bridge 1.98/1.89):\n")
		return report.Figure6(buf, evals)
	})
}

func BenchmarkFigure7RandomClusteringBaseline(b *testing.B) {
	prof := nasProfile(b)
	ti, err := prof.TargetIndex("Atom")
	if err != nil {
		b.Fatal(err)
	}
	var rows []pipeline.RandomClusteringStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, k := range []int{6, 12, 18, 24} {
			st, err := prof.RandomClusterings(DefaultFeatures(), k, 100, ti, 99)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, st)
		}
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "Guided vs 100 random clusterings on Atom (paper uses 1000; cmd/fgbs f7 for the full run):\n")
		return report.Figure7(buf, "Atom", rows)
	})
}

// BenchmarkFigure7RandomClusteringBaselineParallel is the serial
// baseline above fanned out over GOMAXPROCS workers. Every trial's
// partition is a pure function of (seed, trial index), so the rows it
// produces are asserted identical to the serial run — the speedup is
// free of any result drift.
func BenchmarkFigure7RandomClusteringBaselineParallel(b *testing.B) {
	prof := nasProfile(b)
	ti, err := prof.TargetIndex("Atom")
	if err != nil {
		b.Fatal(err)
	}
	ks := []int{6, 12, 18, 24}
	serial := make([]pipeline.RandomClusteringStats, len(ks))
	for i, k := range ks {
		if serial[i], err = prof.RandomClusterings(DefaultFeatures(), k, 100, ti, 99); err != nil {
			b.Fatal(err)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	st := pipeline.NewEngine(stage.NewStore(64, "")).Adopt(NASSuite(), pipeline.StageOptions{Options: pipeline.Options{Seed: 1}}, prof)
	var rows []pipeline.RandomClusteringStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, k := range ks {
			row, err := st.RandomClusterings(context.Background(), DefaultFeatures(), k, 100, ti, 99, workers, nil)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	b.StopTimer()
	for i := range serial {
		if rows[i] != serial[i] {
			b.Fatalf("parallel row %d diverged from serial: %+v != %+v", i, rows[i], serial[i])
		}
	}
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "Parallel (%d workers) guided vs 100 random clusterings on Atom — rows identical to the serial benchmark:\n", workers)
		return report.Figure7(buf, "Atom", rows)
	})
}

func BenchmarkFigure8CrossApplication(b *testing.B) {
	prof := nasProfile(b)
	var cross, per []pipeline.PerAppPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cross, per = cross[:0], per[:0]
		for _, reps := range []int{1, 2, 3, 4} {
			pp, err := prof.PerAppSubsetting(DefaultFeatures(), reps)
			if err != nil {
				b.Fatal(err)
			}
			per = append(per, pp)
			cp, err := prof.CrossAppPoint(DefaultFeatures(), pp.TotalReps)
			if err != nil {
				b.Fatal(err)
			}
			cross = append(cross, cp)
		}
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "Across-apps vs per-app subsetting (paper Figure 8: shared reps win at small budgets; MG excluded per-app):\n")
		return report.Figure8(buf, prof, cross, per)
	})
}

//
// Ablation benchmarks (DESIGN.md A1-A5): design-choice checks beyond
// the paper's own evaluation.
//

// BenchmarkAblationLinkage compares Ward with single/complete/average
// linkage at the elbow K (A1).
func BenchmarkAblationLinkage(b *testing.B) {
	prof := nasProfile(b)
	linkages := []cluster.Linkage{cluster.Ward, cluster.Single, cluster.Complete, cluster.Average}
	results := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range linkages {
			sub, err := prof.SubsetWith(DefaultFeatures(), 18, pipeline.SubsetConfig{Linkage: l})
			if err != nil {
				b.Fatal(err)
			}
			ev, err := prof.Evaluate(sub, 0)
			if err != nil {
				b.Fatal(err)
			}
			results[l.String()] = ev.Summary.Median
		}
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintln(buf, "A1 linkage ablation, Atom median error at K=18:")
		for _, l := range linkages {
			fmt.Fprintf(buf, "  %-9s %.1f%%\n", l, results[l.String()]*100)
		}
		return nil
	})
}

// BenchmarkAblationNormalization toggles the z-score normalization of
// §3.3 (A2).
func BenchmarkAblationNormalization(b *testing.B) {
	prof := nasProfile(b)
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1, err := prof.SubsetWith(DefaultFeatures(), 18, pipeline.SubsetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		e1, err := prof.Evaluate(s1, 0)
		if err != nil {
			b.Fatal(err)
		}
		with = e1.Summary.Median
		s2, err := prof.SubsetWith(DefaultFeatures(), 18, pipeline.SubsetConfig{NoNormalize: true})
		if err != nil {
			b.Fatal(err)
		}
		e2, err := prof.Evaluate(s2, 0)
		if err != nil {
			b.Fatal(err)
		}
		without = e2.Summary.Median
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "A2 normalization ablation (Atom median error, K=18): normalized %.1f%%, raw %.1f%%\n",
			with*100, without*100)
		return nil
	})
}

// BenchmarkAblationRepresentativeChoice compares centroid-closest
// against first-member representatives (A3).
func BenchmarkAblationRepresentativeChoice(b *testing.B) {
	prof := nasProfile(b)
	var centroid, first float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1, err := prof.SubsetWith(DefaultFeatures(), 18, pipeline.SubsetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		e1, err := prof.Evaluate(s1, 0)
		if err != nil {
			b.Fatal(err)
		}
		centroid = e1.Summary.Median
		s2, err := prof.SubsetWith(DefaultFeatures(), 18, pipeline.SubsetConfig{RepStrategy: pipeline.RepFirst})
		if err != nil {
			b.Fatal(err)
		}
		e2, err := prof.Evaluate(s2, 0)
		if err != nil {
			b.Fatal(err)
		}
		first = e2.Summary.Median
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "A3 representative ablation (Atom median error, K=18): centroid %.1f%%, first member %.1f%%\n",
			centroid*100, first*100)
		return nil
	})
}

// BenchmarkAblationInvocationRule sweeps the 1 ms / 10 invocation
// thresholds of §3.4 (A4).
func BenchmarkAblationInvocationRule(b *testing.B) {
	prof := nasProfile(b)
	sub := defaultSubset(b, prof)
	type rule struct {
		name   string
		minSec float64
		minInv int
	}
	rules := []rule{
		{"paper (2ms/10)", extract.MinBenchSeconds, extract.MinInvocations},
		{"loose (0.5ms/5)", 5e-4, 5},
		{"strict (10ms/30)", 1e-2, 30},
	}
	results := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rules {
			br := prof.ReductionWithRule(sub, 0, r.minSec, r.minInv)
			results[r.name] = br.Total
		}
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintln(buf, "A4 invocation-rule ablation (Atom total reduction):")
		for _, r := range rules {
			fmt.Fprintf(buf, "  %-17s x%.1f\n", r.name, results[r.name])
		}
		return nil
	})
}

// BenchmarkAblationIllBehavedScreening disables the §3.4 screening
// (A5): ill-behaved representatives then leak into Step E.
func BenchmarkAblationIllBehavedScreening(b *testing.B) {
	prof := nasProfile(b)
	var withScreen, withoutScreen float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s1, err := prof.SubsetWith(DefaultFeatures(), 18, pipeline.SubsetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		e1, err := prof.Evaluate(s1, 0)
		if err != nil {
			b.Fatal(err)
		}
		withScreen = e1.Summary.Median
		s2, err := prof.SubsetWith(DefaultFeatures(), 18, pipeline.SubsetConfig{IgnoreScreening: true})
		if err != nil {
			b.Fatal(err)
		}
		e2, err := prof.Evaluate(s2, 0)
		if err != nil {
			b.Fatal(err)
		}
		withoutScreen = e2.Summary.Median
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "A5 screening ablation (Atom median error, K=18): screened %.1f%%, unscreened %.1f%%\n",
			withScreen*100, withoutScreen*100)
		return nil
	})
}

// BenchmarkAblationArchIndependentFeatures compares the default
// (reference-profiled) feature subset with a purely machine-
// independent characterization (A6, the generalization §5 proposes).
func BenchmarkAblationArchIndependentFeatures(b *testing.B) {
	prof := nasProfile(b)
	masks := map[string]FeatureMask{
		"default":          DefaultFeatures(),
		"arch-independent": features.ArchIndependentMask(),
		"paper table 2":    PaperFeatures(),
	}
	results := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, m := range masks {
			sub, err := prof.SubsetWith(m, 18, pipeline.SubsetConfig{})
			if err != nil {
				b.Fatal(err)
			}
			ev, err := prof.Evaluate(sub, 0)
			if err != nil {
				b.Fatal(err)
			}
			results[name] = ev.Summary.Median
		}
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintln(buf, "A6 feature-provenance ablation (Atom median error, K=18):")
		for _, name := range []string{"default", "paper table 2", "arch-independent"} {
			fmt.Fprintf(buf, "  %-17s %.1f%%\n", name, results[name]*100)
		}
		return nil
	})
}

//
// Extension benchmarks (§5/§6 directions; see EXPERIMENTS.md
// "Extensions").
//

// BenchmarkExtensionPolySuite subsets the PolyBench-like suite with
// the NR-trained default features.
func BenchmarkExtensionPolySuite(b *testing.B) {
	prof := polyProfile(b)
	var sub *Subset
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sub, err = prof.Subset(DefaultFeatures(), 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	evals := evaluateAll(b, prof, sub)
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "PolyBench-like suite: %d codelets -> %d representatives\n", prof.N(), sub.K())
		for _, ev := range evals {
			fmt.Fprintf(buf, "  %-13s median err %.1f%%  reduction x%.1f\n",
				ev.Target.Name, ev.Summary.Median*100, ev.Reduction.Total)
		}
		return nil
	})
}

// BenchmarkExtensionJointSuite clusters NAS and poly together,
// measuring the inter-suite redundancy.
func BenchmarkExtensionJointSuite(b *testing.B) {
	joint := jointProfile(b)
	nas := nasProfile(b)
	poly := polyProfile(b)
	mask := DefaultFeatures()
	var kJoint int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		kJoint, err = joint.Elbow(mask)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	kNAS, err := nas.Elbow(mask)
	if err != nil {
		b.Fatal(err)
	}
	kPoly, err := poly.Elbow(mask)
	if err != nil {
		b.Fatal(err)
	}
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintf(buf, "Joint-suite redundancy: NAS alone %d reps + poly alone %d reps = %d; clustered together: %d reps\n",
			kNAS, kPoly, kNAS+kPoly, kJoint)
		return nil
	})
}

// BenchmarkExtensionWideVector evaluates prediction on the wide-vector
// accelerator-like target with three feature subsets.
func BenchmarkExtensionWideVector(b *testing.B) {
	targets := append(arch.Targets(), arch.WideVec())
	prof, err := pipeline.NewProfile(NASSuite(), pipeline.Options{Seed: 1, Targets: targets})
	if err != nil {
		b.Fatal(err)
	}
	wv, err := prof.TargetIndex("WideVec")
	if err != nil {
		b.Fatal(err)
	}
	masks := []struct {
		name string
		m    FeatureMask
	}{
		{"default", DefaultFeatures()},
		{"paper table 2", PaperFeatures()},
		{"arch-independent", features.ArchIndependentMask()},
	}
	results := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mk := range masks {
			sub, err := prof.Subset(mk.m, 0)
			if err != nil {
				b.Fatal(err)
			}
			ev, err := prof.Evaluate(sub, wv)
			if err != nil {
				b.Fatal(err)
			}
			results[mk.name] = ev.Summary.Median
		}
	}
	b.StopTimer()
	logArtifact(b, func(buf *bytes.Buffer) error {
		fmt.Fprintln(buf, "WideVec (512-bit accelerator-like) median prediction error:")
		for _, mk := range masks {
			fmt.Fprintf(buf, "  %-17s %.1f%%\n", mk.name, results[mk.name]*100)
		}
		return nil
	})
}

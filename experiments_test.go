package fgbs

// The tests in this file are the reproduction checks: one per table
// and figure of the paper's evaluation (§4). Each asserts the *shape*
// of the published result — who wins, by roughly what factor, where
// crossovers fall — not the absolute numbers, which depended on the
// authors' physical testbed. EXPERIMENTS.md records paper-vs-measured
// values side by side.

import (
	"context"
	"testing"

	"fgbs/internal/features"
	"fgbs/internal/ga"
)

// TestTable2FeatureGA: the genetic algorithm trained on NR (targets
// Atom and Sandy Bridge, fitness = max error x K) must find a subset
// at least as fit as the full feature set, and the default subset
// must beat the full set too — the paper's point that irrelevant
// features degrade clustering.
func TestTable2FeatureGA(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("GA is measurement- and compute-heavy")
	}
	prof := nrProfile(t)
	fitness, err := prof.FeatureFitness("Atom", "Sandy Bridge")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ga.Run(context.Background(), fitness, ga.Options{
		Population: 60, Generations: 20, MutationProb: 0.01, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := fitness(AllFeatures())
	if res.BestFitness > full {
		t.Errorf("GA best %.3f worse than all-features %.3f", res.BestFitness, full)
	}
	if res.Best.Count() >= features.NumFeatures/2 {
		t.Errorf("GA kept %d features; the paper's winner is small (14)", res.Best.Count())
	}
}

// TestTable3NRClustering: the NR clustering at K=14 must reproduce
// the structural groupings the paper highlights — the vector-divide
// codelets isolated together (cluster 10), the two first-order
// recurrences together (cluster 12), and the two dense matrix-vector
// products separated by precision.
func TestTable3NRClustering(t *testing.T) {
	skipIfRace(t)
	prof := nrProfile(t)
	sub, err := prof.Subset(DefaultFeatures(), 14)
	if err != nil {
		t.Fatal(err)
	}
	label := map[string]int{}
	for i, c := range prof.Codelets {
		label[c.Name] = sub.Selection.Labels[i]
	}
	if label["svdcmp_14"] != label["svdcmp_13"] {
		t.Error("divide codelets svdcmp_14 and svdcmp_13 not clustered together")
	}
	if label["tridag_1"] != label["tridag_2"] {
		t.Error("recurrence codelets tridag_1 and tridag_2 not clustered together")
	}
	if label["mprove_8"] == label["svbksb_3"] {
		t.Error("MP and SP matrix-vector products merged; the paper separates them by precision")
	}
	// Divides sit apart from plain element-wise vector code.
	if label["svdcmp_14"] == label["balanc_3"] {
		t.Error("divide codelets merged with element-wise multiply")
	}
}

// TestTable4NRPrediction: NR prediction errors (Table 4). Paper:
// K=14 -> medians 1.8%/3.2%, averages 12%/9.3%; elbow K -> medians
// 0%, averages 1.7%/0.97%.
func TestTable4NRPrediction(t *testing.T) {
	skipIfRace(t)
	prof := nrProfile(t)
	check := func(k int, wantMedianBelow, wantAvgBelow float64) {
		sub, err := prof.Subset(DefaultFeatures(), k)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"Atom", "Sandy Bridge"} {
			ev := targetEval(t, prof, sub, name)
			if ev.Summary.Median > wantMedianBelow {
				t.Errorf("K=%d on %s: median error %.1f%% above %.1f%%",
					k, name, ev.Summary.Median*100, wantMedianBelow*100)
			}
			if ev.Summary.Average > wantAvgBelow {
				t.Errorf("K=%d on %s: average error %.1f%% above %.1f%%",
					k, name, ev.Summary.Average*100, wantAvgBelow*100)
			}
		}
	}
	check(14, 0.05, 0.20)
	elbow := defaultSubset(t, prof).RequestedK
	if elbow < 20 || elbow > 26 {
		t.Errorf("NR elbow K = %d, paper selects 24", elbow)
	}
	check(elbow, 0.02, 0.08)
}

// TestTable5ReductionBreakdown: the benchmarking-reduction factors.
// Paper: totals x44.3/x24.7/x22.5 (Atom/Core 2/Sandy Bridge) with
// invocation factors x12/x8.7/x6.3 and clustering factors
// x3.7/x2.8/x3.6, i.e. tens overall, invocation reduction the bigger
// contributor, clustering worth about N/K.
func TestTable5ReductionBreakdown(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	sub := defaultSubset(t, prof)
	for _, ev := range evaluateAll(t, prof, sub) {
		r := ev.Reduction
		if r.Total < 15 || r.Total > 70 {
			t.Errorf("%s: total reduction x%.1f outside the paper's band (x22-x44)", ev.Target.Name, r.Total)
		}
		if r.InvocationFactor < 4 || r.InvocationFactor > 20 {
			t.Errorf("%s: invocation factor x%.1f outside band", ev.Target.Name, r.InvocationFactor)
		}
		if r.ClusteringFactor < 1.8 || r.ClusteringFactor > 6 {
			t.Errorf("%s: clustering factor x%.1f outside band", ev.Target.Name, r.ClusteringFactor)
		}
		if r.InvocationFactor < r.ClusteringFactor {
			t.Errorf("%s: invocation reduction x%.1f below clustering x%.1f; the paper has invocations dominate",
				ev.Target.Name, r.InvocationFactor, r.ClusteringFactor)
		}
	}
}

// TestFigure2ClusterPrediction: representatives are measured, so
// their prediction error is (near) zero, and the cluster-speedup
// extrapolation lands siblings close to truth for well-behaved
// clusters.
func TestFigure2ClusterPrediction(t *testing.T) {
	skipIfRace(t)
	prof := nrProfile(t)
	sub, err := prof.Subset(DefaultFeatures(), 14)
	if err != nil {
		t.Fatal(err)
	}
	ev := targetEval(t, prof, sub, "Atom")
	for k, r := range sub.Selection.Reps {
		// A representative's only prediction error is the standalone
		// vs in-app measurement gap, bounded by the screening
		// tolerance plus noise.
		if ev.Errors[r] > 0.13 {
			t.Errorf("cluster %d representative %s error %.1f%%",
				k, prof.Codelets[r].Name, ev.Errors[r]*100)
		}
	}
}

// TestFigure3TradeoffSweep: more clusters -> lower error and lower
// reduction factor; the elbow K sits in the paper's neighborhood
// (18 of 67).
func TestFigure3TradeoffSweep(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	pts, err := prof.SweepKContext(context.Background(), DefaultFeatures(), 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	first, last := pts[0], pts[len(pts)-1]
	for ti, m := range prof.Targets {
		if last.MedianError[ti] > first.MedianError[ti] {
			t.Errorf("%s: error did not fall from K=2 (%.1f%%) to K=24 (%.1f%%)",
				m.Name, first.MedianError[ti]*100, last.MedianError[ti]*100)
		}
		if last.Reduction[ti] > first.Reduction[ti] {
			t.Errorf("%s: reduction did not fall with K", m.Name)
		}
		if last.MedianError[ti] > 0.10 {
			t.Errorf("%s: median error %.1f%% at K=24, paper is below 8%%",
				m.Name, last.MedianError[ti]*100)
		}
	}
	elbow := defaultSubset(t, prof).RequestedK
	if elbow < 14 || elbow > 22 {
		t.Errorf("NAS elbow K = %d, paper selects 18", elbow)
	}
}

// TestFigure4CodeletPrediction: per-codelet prediction on Sandy
// Bridge — median a few percent and only a small minority of
// codelets badly mispredicted ("Only three codelets in BT, LU, and
// SP are mispredicted").
func TestFigure4CodeletPrediction(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	sub := defaultSubset(t, prof)
	ev := targetEval(t, prof, sub, "Sandy Bridge")
	if ev.Summary.Median > 0.06 {
		t.Errorf("Sandy Bridge median error %.1f%%, paper 5.8%%", ev.Summary.Median*100)
	}
	bad := 0
	for _, e := range ev.Errors {
		if e > 0.30 {
			bad++
		}
	}
	if bad > 6 {
		t.Errorf("%d codelets mispredicted >30%% on Sandy Bridge; the paper shows only a handful", bad)
	}
}

// TestFigure5ApplicationPrediction: application-level behavior.
// Paper: every Atom app predicted well except CG (the cache-state
// anomaly); Core 2 close to the reference with app-dependent winners;
// Sandy Bridge fast and accurately predicted.
func TestFigure5ApplicationPrediction(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	sub := defaultSubset(t, prof)

	atom := targetEval(t, prof, sub, "Atom")
	var cgErr, worst float64
	var worstApp string
	for _, a := range atom.Apps {
		if a.Name == "cg" {
			cgErr = a.ErrorFrac
		}
		if a.ErrorFrac > worst {
			worst, worstApp = a.ErrorFrac, a.Name
		}
		if a.ActualSec < a.RefSec {
			t.Errorf("app %s faster on Atom than on the reference", a.Name)
		}
	}
	if cgErr < 0.08 {
		t.Errorf("CG error on Atom = %.1f%%; the paper's cache-state anomaly makes it large", cgErr*100)
	}
	if worstApp != "cg" {
		t.Errorf("worst-predicted Atom app is %s (%.1f%%), paper singles out CG", worstApp, worst*100)
	}
	// The CG misprediction must be an underestimate: the extracted
	// microbenchmark runs faster than the real codelet on Atom.
	for _, a := range atom.Apps {
		if a.Name == "cg" && a.PredSec >= a.ActualSec {
			t.Error("CG on Atom overpredicted; paper's anomaly underpredicts")
		}
	}

	// Core 2's winner depends on the app. Measured at seed 1: CG, FT,
	// LU and SP run faster than on the reference, BT, IS and MG slower.
	// The prediction gets BT's verdict wrong: BT really runs slower but
	// is predicted faster, so the predicted split is 5/2.
	core2 := targetEval(t, prof, sub, "Core 2")
	faster, slower := 0, 0
	for _, a := range core2.Apps {
		if a.ActualSec < a.RefSec {
			faster++
		} else {
			slower++
		}
		if a.Name == "bt" && (a.ActualSec < a.RefSec || a.PredSec >= a.RefSec) {
			t.Errorf("BT on Core 2: real %.3fs, predicted %.3fs, reference %.3fs; want slower in reality but predicted faster",
				a.ActualSec, a.PredSec, a.RefSec)
		}
	}
	if faster != 4 || slower != 3 {
		t.Errorf("Core 2 measured split: %d apps faster, %d slower; want 4 faster (cg, ft, lu, sp), 3 slower (bt, is, mg)", faster, slower)
	}

	sb := targetEval(t, prof, sub, "Sandy Bridge")
	for _, a := range sb.Apps {
		if a.ActualSec > a.RefSec {
			t.Errorf("app %s slower on Sandy Bridge than reference", a.Name)
		}
		if a.ErrorFrac > 0.12 {
			t.Errorf("app %s error %.1f%% on Sandy Bridge; paper predicts all apps accurately", a.Name, a.ErrorFrac*100)
		}
	}
}

// TestFigure6GeomeanSpeedup: per-architecture geometric-mean
// speedups. Paper: Atom 0.15 real / 0.19 predicted, Core 2 0.97 /
// 1.00, Sandy Bridge 1.98 / 1.89.
func TestFigure6GeomeanSpeedup(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	sub := defaultSubset(t, prof)
	bands := map[string][2]float64{
		"Atom":         {0.10, 0.30},
		"Core 2":       {0.75, 1.15},
		"Sandy Bridge": {1.75, 2.25},
	}
	for _, ev := range evaluateAll(t, prof, sub) {
		band := bands[ev.Target.Name]
		if ev.GeoMeanRealSpeedup < band[0] || ev.GeoMeanRealSpeedup > band[1] {
			t.Errorf("%s real geomean %.2f outside [%.2f, %.2f]",
				ev.Target.Name, ev.GeoMeanRealSpeedup, band[0], band[1])
		}
		rel := ev.GeoMeanPredictedSpeedup/ev.GeoMeanRealSpeedup - 1
		if rel < -0.25 || rel > 0.25 {
			t.Errorf("%s predicted geomean %.2f vs real %.2f: off by %.0f%%",
				ev.Target.Name, ev.GeoMeanPredictedSpeedup, ev.GeoMeanRealSpeedup, rel*100)
		}
	}
}

// TestFigure7RandomClusteringBaseline: the feature-guided clustering
// must be consistently close to or better than the best of the random
// clusterings.
func TestFigure7RandomClusteringBaseline(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("random-clustering sweep is compute-heavy")
	}
	prof := nasProfile(t)
	ti, err := prof.TargetIndex("Atom")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{6, 12, 18} {
		st, err := prof.RandomClusterings(DefaultFeatures(), k, 200, ti, 99)
		if err != nil {
			t.Fatal(err)
		}
		if st.Guided > st.Median {
			t.Errorf("K=%d: guided %.1f%% worse than the random median %.1f%%",
				k, st.Guided*100, st.Median*100)
		}
		if st.Guided > st.Best*3+0.02 {
			t.Errorf("K=%d: guided %.1f%% not close to the best random %.1f%%",
				k, st.Guided*100, st.Best*100)
		}
	}
}

// TestFigure8CrossApplication: shared representatives beat
// per-application subsetting at matched budgets, and MG is
// unpredictable per-app (all its codelets are ill-behaved).
func TestFigure8CrossApplication(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	mask := DefaultFeatures()

	// The paper's claim lives in the small-budget regime: "shared
	// representatives can exploit inter-application redundancy,
	// achieving low prediction errors with less representatives."
	perWins, crossWins := 0, 0
	atomCore2Losses := 0
	var sawMGExcluded bool
	for _, reps := range []int{1, 2, 3} {
		pp, err := prof.PerAppSubsetting(context.Background(), mask, reps)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range pp.ExcludedApps {
			if ex == "mg" {
				sawMGExcluded = true
			}
		}
		cp, err := prof.CrossAppPoint(mask, pp.TotalReps)
		if err != nil {
			t.Fatal(err)
		}
		for ti, m := range prof.Targets {
			if cp.MedianError[ti] <= pp.MedianError[ti] {
				crossWins++
			} else {
				perWins++
				if reps >= 2 && (m.Name == "Atom" || m.Name == "Core 2") {
					atomCore2Losses++
				}
			}
		}
	}
	if !sawMGExcluded {
		t.Error("MG predictable per-app; the paper excludes it (ill-behaved codelets)")
	}
	if crossWins <= perWins {
		t.Errorf("cross-app subsetting won only %d of %d small-budget comparisons",
			crossWins, crossWins+perWins)
	}
	if atomCore2Losses > 0 {
		t.Errorf("cross-app lost %d Atom/Core 2 comparisons at budgets >= 2 per app", atomCore2Losses)
	}
}

// TestIllBehavedShareMatchesAkel: ~19% of NAS codelets fail the
// extraction screening on the reference.
func TestIllBehavedShareMatchesAkel(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	ill := 0
	for _, b := range prof.IllBehaved {
		if b {
			ill++
		}
	}
	frac := float64(ill) / float64(prof.N())
	if frac < 0.13 || frac > 0.25 {
		t.Errorf("ill-behaved share %.0f%%, Akel et al. report 19%%", frac*100)
	}
}

// TestClusterAB reproduces §4.4's "Capturing architecture change":
// the compute-bound pair (LU/erhs, FT/evolve) speeds up on Core 2
// while the memory-bound five-plane stencils slow down.
func TestClusterAB(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	ti, err := prof.TargetIndex("Core 2")
	if err != nil {
		t.Fatal(err)
	}
	speedup := func(name string) float64 {
		for i, c := range prof.Codelets {
			if c.Name == name {
				return prof.RefInApp[i] / prof.TargetInApp[ti][i]
			}
		}
		t.Fatalf("codelet %s not found", name)
		return 0
	}
	for _, name := range []string{"lu_erhs", "ft_evolve"} {
		if s := speedup(name); s < 1.15 || s > 1.6 {
			t.Errorf("cluster A codelet %s Core 2 speedup %.2f, paper ~1.37", name, s)
		}
	}
	for _, name := range []string{"bt_rhs_z", "sp_rhs_z"} {
		if s := speedup(name); s > 0.9 || s < 0.5 {
			t.Errorf("cluster B codelet %s Core 2 speedup %.2f, paper ~0.75 (1.34x slower)", name, s)
		}
	}
	// And the subsetting keeps them apart.
	sub := defaultSubset(t, prof)
	label := map[string]int{}
	for i, c := range prof.Codelets {
		label[c.Name] = sub.Selection.Labels[i]
	}
	if label["lu_erhs"] == label["bt_rhs_z"] {
		t.Error("compute-bound cluster A merged with memory-bound cluster B")
	}
	if label["lu_erhs"] != label["ft_evolve"] {
		t.Error("cluster A pair (LU/erhs, FT/evolve) split")
	}
	if label["bt_rhs_z"] != label["sp_rhs_z"] {
		t.Error("cluster B pair (BT/rhs z-sweep, SP/rhs z-sweep) split")
	}
}

// TestShortCodeletsNoisier reproduces §4.4's observation that "the
// error mainly comes from short-lived codelets ... which are more
// affected by measurement errors such as instrumentation overhead":
// among well-predicted clusters, the shortest codelets carry larger
// median error than the longest.
func TestShortCodeletsNoisier(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	sub := defaultSubset(t, prof)
	ev := targetEval(t, prof, sub, "Sandy Bridge")

	type codelet struct {
		secs float64
		err  float64
	}
	var list []codelet
	for i := range prof.Codelets {
		list = append(list, codelet{prof.RefInApp[i], ev.Errors[i]})
	}
	// Split at the median reference time.
	times := make([]float64, len(list))
	for i, c := range list {
		times[i] = c.secs
	}
	cut := medianOf(times)
	var short, long []float64
	for _, c := range list {
		if c.secs <= cut {
			short = append(short, c.err)
		} else {
			long = append(long, c.err)
		}
	}
	if medianOf(short) <= medianOf(long) {
		t.Errorf("short codelets median error %.2f%% not above long codelets %.2f%%",
			medianOf(short)*100, medianOf(long)*100)
	}
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// TestClusteringFactorNearNOverK: §4.4 notes the clustering reduction
// "is close to the ratio between the original number of codelets and
// the number of representatives".
func TestClusteringFactorNearNOverK(t *testing.T) {
	skipIfRace(t)
	prof := nasProfile(t)
	sub := defaultSubset(t, prof)
	ratio := float64(prof.N()) / float64(sub.K())
	for _, ev := range evaluateAll(t, prof, sub) {
		cf := ev.Reduction.ClusteringFactor
		if cf < ratio*0.6 || cf > ratio*1.6 {
			t.Errorf("%s: clustering factor x%.1f far from N/K = %.1f",
				ev.Target.Name, cf, ratio)
		}
	}
}

// TestSeedRobustness: the headline shapes cannot depend on the
// particular measurement-noise and dataset seed.
func TestSeedRobustness(t *testing.T) {
	skipIfRace(t)
	if testing.Short() {
		t.Skip("re-profiles the NAS suite")
	}
	prof, err := NewProfile(NASSuite(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ill := 0
	for _, b := range prof.IllBehaved {
		if b {
			ill++
		}
	}
	if ill < 11 || ill > 15 {
		t.Errorf("seed 7: %d ill-behaved codelets", ill)
	}
	sub := defaultSubset(t, prof)
	if sub.K() < 14 || sub.K() > 24 {
		t.Errorf("seed 7: elbow K = %d", sub.K())
	}
	for _, ev := range evaluateAll(t, prof, sub) {
		if ev.Summary.Median > 0.06 {
			t.Errorf("seed 7: %s median error %.1f%%", ev.Target.Name, ev.Summary.Median*100)
		}
		if ev.Reduction.Total < 15 || ev.Reduction.Total > 70 {
			t.Errorf("seed 7: %s reduction x%.1f", ev.Target.Name, ev.Reduction.Total)
		}
	}
}

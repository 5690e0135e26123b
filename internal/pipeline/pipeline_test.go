package pipeline

import (
	"context"
	"sync"
	"testing"

	"fgbs/internal/extract"
	"fgbs/internal/features"
	"fgbs/internal/ir"
	"fgbs/internal/rng"
)

// tinySuite builds two small applications with heterogeneous codelets
// (stream, divide, recurrence, gather) so clustering has structure,
// without the cost of the full NR/NAS suites.
func tinySuite() []*ir.Program {
	mk := func(appName string) *ir.Program {
		p := ir.NewProgram(appName)
		p.SetParam("n", 200000) // streams past every modeled cache
		p.UncoveredFraction = 0.05
		p.AddArray("a", ir.F64, ir.AV("n"))
		p.AddArray("b", ir.F64, ir.AV("n"))
		p.AddArray("c", ir.F64, ir.AV("n"))
		idx := p.AddArray("idx", ir.I64, ir.AV("n"))
		idx.Init = ir.IntInit{Kind: ir.IntInitUniform, Bound: ir.AV("n")}
		p.AddScalar("s", ir.F64)

		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_copy", Invocations: 50,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: p.LoadE("b", ir.V("i"))},
			}},
		})
		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_div", Invocations: 30,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("a", ir.V("i")),
					RHS: ir.Div(p.LoadE("b", ir.V("i")), ir.Add(p.LoadE("c", ir.V("i")), ir.CF(1.5)))},
			}},
		})
		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_rec", Invocations: 20,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(1), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("a", ir.V("i")),
					RHS: ir.Add(ir.Mul(p.LoadE("a", ir.Sub(ir.V("i"), ir.CI(1))), ir.CF(0.5)), p.LoadE("b", ir.V("i")))},
			}},
		})
		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_gather", Invocations: 25,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("s"),
					RHS: ir.Add(p.LoadE("s"), p.LoadE("c", p.LoadE("idx", ir.V("i"))))},
			}},
		})
		return p
	}
	first := mk("alpha")
	second := mk("beta")
	// One designed ill-behaved codelet in beta.
	second.Codelets[1].ContextSensitive = true
	return []*ir.Program{first, second}
}

var tinyMask = features.DefaultMask()

var (
	tinyOnce sync.Once
	tinyProf *Profile
	tinyErr  error
)

// tinyProfile builds the shared fixture once per test binary:
// profiling is the expensive step and is deterministic.
func tinyProfile(t *testing.T) *Profile {
	t.Helper()
	tinyOnce.Do(func() {
		tinyProf, tinyErr = NewProfile(tinySuite(), Options{Seed: 1})
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyProf
}

func TestDetectRejectsBadPrograms(t *testing.T) {
	p := ir.NewProgram("empty")
	if _, _, err := Detect([]*ir.Program{p}); err == nil {
		t.Error("program without codelets accepted")
	}
}

func TestProfileShape(t *testing.T) {
	prof := tinyProfile(t)
	if prof.N() != 8 {
		t.Fatalf("N = %d, want 8", prof.N())
	}
	if len(prof.Targets) != 3 {
		t.Fatalf("targets = %d", len(prof.Targets))
	}
	for i := 0; i < prof.N(); i++ {
		if prof.RefInApp[i] <= 0 || prof.RefStandalone[i] <= 0 {
			t.Errorf("codelet %d: non-positive reference times", i)
		}
		if len(prof.Features[i]) != features.NumFeatures {
			t.Errorf("codelet %d: %d features", i, len(prof.Features[i]))
		}
		for tt := range prof.Targets {
			if prof.TargetInApp[tt][i] <= 0 || prof.TargetStandalone[tt][i] <= 0 {
				t.Errorf("codelet %d target %d: non-positive times", i, tt)
			}
		}
	}
	// Exactly the designed codelet is ill-behaved.
	ill := 0
	for i, b := range prof.IllBehaved {
		if b {
			ill++
			if prof.Codelets[i].Name != "beta_div" {
				t.Errorf("unexpected ill-behaved codelet %s", prof.Codelets[i].Name)
			}
		}
	}
	if ill != 1 {
		t.Errorf("ill-behaved count = %d, want 1", ill)
	}
}

func TestProfileDeterministic(t *testing.T) {
	a := tinyProfile(t)
	b, err := NewProfile(tinySuite(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		if a.RefInApp[i] != b.RefInApp[i] {
			t.Fatalf("profiling not deterministic at codelet %d", i)
		}
	}
}

func TestSubsetAndEvaluate(t *testing.T) {
	prof := tinyProfile(t)
	sub, err := prof.Subset(tinyMask, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sub.K() < 3 || sub.K() > 4 {
		t.Fatalf("final K = %d", sub.K())
	}
	// The ill-behaved codelet must not be a representative.
	for _, r := range sub.Selection.Reps {
		if prof.IllBehaved[r] {
			t.Error("ill-behaved representative selected")
		}
	}
	for tt := range prof.Targets {
		ev, err := prof.Evaluate(sub, tt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.Predicted) != prof.N() {
			t.Fatal("prediction length mismatch")
		}
		// Representatives predict themselves exactly... up to the
		// standalone-vs-in-app measurement gap; they must at least be
		// within the screening tolerance plus noise.
		for k, r := range sub.Selection.Reps {
			_ = k
			if ev.Errors[r] > 0.2 {
				t.Errorf("representative %s error %.2f on %s",
					prof.Codelets[r].Name, ev.Errors[r], ev.Target.Name)
			}
		}
		if ev.Reduction.Total <= 1 {
			t.Errorf("no benchmarking reduction on %s", ev.Target.Name)
		}
		if len(ev.Apps) != 2 {
			t.Errorf("apps = %d, want 2", len(ev.Apps))
		}
	}
}

func TestElbowWithinRange(t *testing.T) {
	prof := tinyProfile(t)
	sub, err := prof.Subset(tinyMask, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k := sub.RequestedK; k < 2 || k > prof.N() {
		t.Errorf("elbow K = %d", k)
	}
}

func TestSweepKMonotonicErrorTrend(t *testing.T) {
	prof := tinyProfile(t)
	pts, err := prof.SweepKContext(context.Background(), tinyMask, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	// Error at the max K should not exceed error at K=2 (per target).
	for tt := range prof.Targets {
		if pts[len(pts)-1].MedianError[tt] > pts[0].MedianError[tt]+0.02 {
			t.Errorf("target %d: error grew with K: %g -> %g",
				tt, pts[0].MedianError[tt], pts[len(pts)-1].MedianError[tt])
		}
	}
}

func TestSubProfileConsistent(t *testing.T) {
	prof := tinyProfile(t)
	idx := prof.AppIndices()["alpha"]
	sp := prof.SubProfile(idx)
	if sp.N() != 4 {
		t.Fatalf("sub-profile N = %d", sp.N())
	}
	for j, i := range idx {
		if sp.RefInApp[j] != prof.RefInApp[i] {
			t.Error("sub-profile reference times misaligned")
		}
		if sp.TargetInApp[0][j] != prof.TargetInApp[0][i] {
			t.Error("sub-profile target times misaligned")
		}
	}
}

func TestPerAppAndCrossApp(t *testing.T) {
	prof := tinyProfile(t)
	pp, err := prof.PerAppSubsetting(context.Background(), tinyMask, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pp.TotalReps < 2 {
		t.Errorf("per-app used %d reps", pp.TotalReps)
	}
	cp, err := prof.CrossAppPoint(tinyMask, pp.TotalReps)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.MedianError) != len(prof.Targets) {
		t.Error("cross-app error vector malformed")
	}
}

func TestRandomClusterings(t *testing.T) {
	prof := tinyProfile(t)
	st, err := prof.RandomClusterings(tinyMask, 3, 25, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Best > st.Median || st.Median > st.Worst {
		t.Errorf("envelope disordered: %+v", st)
	}
	if st.Guided > st.Worst {
		t.Error("guided clustering worse than the worst random partition")
	}
}

func TestRandomPartitionSurjective(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(20)
		k := 1 + r.Intn(n)
		labels := randomPartition(r, n, k)
		seen := map[int]bool{}
		for _, l := range labels {
			if l < 0 || l >= k {
				t.Fatalf("label %d out of range", l)
			}
			seen[l] = true
		}
		if len(seen) != k {
			t.Fatalf("partition not surjective: %d/%d labels", len(seen), k)
		}
	}
}

func TestFeatureFitness(t *testing.T) {
	prof := tinyProfile(t)
	fitness, err := prof.FeatureFitness("Atom", "Sandy Bridge")
	if err != nil {
		t.Fatal(err)
	}
	if f := fitness(tinyMask); f <= 0 {
		t.Errorf("fitness = %g", f)
	}
	var empty features.Mask
	if f := fitness(empty); !isInf(f) {
		t.Errorf("empty mask fitness = %g, want +Inf", f)
	}
	if _, err := prof.FeatureFitness("NoSuchMachine"); err == nil {
		t.Error("unknown target accepted")
	}
}

func isInf(f float64) bool { return f > 1e300 }

func TestSubsetConfigVariants(t *testing.T) {
	prof := tinyProfile(t)
	base, err := prof.Subset(tinyMask, 4)
	if err != nil {
		t.Fatal(err)
	}
	// IgnoreScreening may select the ill-behaved codelet.
	noScreen, err := prof.SubsetWith(tinyMask, 4, SubsetConfig{IgnoreScreening: true})
	if err != nil {
		t.Fatal(err)
	}
	if noScreen.K() < base.K() {
		t.Error("screening off produced fewer clusters")
	}
	// RepFirst picks different representatives deterministically.
	first, err := prof.SubsetWith(tinyMask, 4, SubsetConfig{RepStrategy: RepFirst})
	if err != nil {
		t.Fatal(err)
	}
	for c, r := range first.Selection.Reps {
		for i, l := range first.Selection.Labels {
			if l == c && !prof.IllBehaved[i] {
				if r != i {
					t.Errorf("cluster %d: RepFirst chose %d, want %d", c, r, i)
				}
				break
			}
		}
	}
	// NoNormalize still produces a valid subset.
	if _, err := prof.SubsetWith(tinyMask, 4, SubsetConfig{NoNormalize: true}); err != nil {
		t.Fatal(err)
	}
}

func TestReductionWithRule(t *testing.T) {
	prof := tinyProfile(t)
	sub, err := prof.Subset(tinyMask, 3)
	if err != nil {
		t.Fatal(err)
	}
	loose := prof.ReductionWithRule(sub, 0, 0, 1)
	standard := prof.ReductionWithRule(sub, 0, extract.MinBenchSeconds, extract.MinInvocations)
	strict := prof.ReductionWithRule(sub, 0, 10*extract.MinBenchSeconds, 50)
	if !(loose.Total >= standard.Total && standard.Total >= strict.Total) {
		t.Errorf("reduction not monotone in rule strictness: %.1f / %.1f / %.1f",
			loose.Total, standard.Total, strict.Total)
	}
}

func TestEvaluateRejectsBadTarget(t *testing.T) {
	prof := tinyProfile(t)
	sub, err := prof.Subset(tinyMask, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.Evaluate(sub, 99); err == nil {
		t.Error("out-of-range target accepted")
	}
}

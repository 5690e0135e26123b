package report

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/features"
	"fgbs/internal/ir"
	"fgbs/internal/pipeline"
	"fgbs/internal/represent"
)

// Fixture: a small heterogeneous suite profiled once per test binary.
var (
	once sync.Once
	prof *pipeline.Profile
	fail error
)

func fixtureSuite() []*ir.Program {
	p := ir.NewProgram("demo")
	p.SetParam("n", 200000)
	p.UncoveredFraction = 0.08
	p.AddArray("a", ir.F64, ir.AV("n"))
	p.AddArray("b", ir.F64, ir.AV("n"))
	p.AddScalar("s", ir.F64)
	p.MustAddCodelet(&ir.Codelet{
		Name: "demo_copy", Invocations: 40, SourceRef: "demo.f:1", Pattern: "DP: copy",
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: p.LoadE("b", ir.V("i"))},
		}},
	})
	p.MustAddCodelet(&ir.Codelet{
		Name: "demo_div", Invocations: 20, SourceRef: "demo.f:2", Pattern: "DP: divide",
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")),
				RHS: ir.Div(p.LoadE("b", ir.V("i")), ir.Add(p.LoadE("a", ir.V("i")), ir.CF(2)))},
		}},
	})
	p.MustAddCodelet(&ir.Codelet{
		Name: "demo_sum", Invocations: 30, SourceRef: "demo.f:3", Pattern: "DP: reduction",
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("s"), RHS: ir.Add(p.LoadE("s"), p.LoadE("a", ir.V("i")))},
		}},
	})
	return []*ir.Program{p}
}

func fixture(t *testing.T) (*pipeline.Profile, *pipeline.Subset, *pipeline.Eval) {
	t.Helper()
	once.Do(func() {
		prof, fail = pipeline.NewProfile(fixtureSuite(), pipeline.Options{Seed: 1})
	})
	if fail != nil {
		t.Fatal(fail)
	}
	sub, err := prof.Subset(features.DefaultMask(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := prof.Evaluate(sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	return prof, sub, ev
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, arch.All()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Nehalem", "Atom", "Core 2", "Sandy Bridge", "GHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, features.PaperMask()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"likwid", "maqao", "mflops", "num_fp_div"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	// 14 feature rows plus header.
	if got := strings.Count(strings.TrimSpace(out), "\n"); got != 14 {
		t.Errorf("Table2 has %d rows, want 14", got)
	}
}

func TestTable3(t *testing.T) {
	p, sub, ev := fixture(t)
	var buf bytes.Buffer
	if err := Table3(&buf, p, sub, ev); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo_copy", "DP: divide", "Vec.%", "<"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 missing %q in:\n%s", want, out)
		}
	}
}

func TestTable4(t *testing.T) {
	p, _, _ := fixture(t)
	var buf bytes.Buffer
	err := Table4(&buf, p, features.DefaultMask(), []int{2, 3}, []string{"Atom"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Atom median") {
		t.Errorf("Table4 output:\n%s", buf.String())
	}
	if err := Table4(&buf, p, features.DefaultMask(), []int{2}, []string{"Nope"}); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestTable5(t *testing.T) {
	p, sub, _ := fixture(t)
	var buf bytes.Buffer
	if err := Table5(&buf, p, sub); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Reduction") || !strings.Contains(out, "Atom") {
		t.Errorf("Table5 output:\n%s", out)
	}
}

func TestFigures(t *testing.T) {
	p, sub, ev := fixture(t)
	var buf bytes.Buffer

	if err := Figure2(&buf, p, sub, ev, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "predicted(ms)") {
		t.Error("Figure2 header missing")
	}

	pts, err := p.SweepKContext(context.Background(), features.DefaultMask(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Figure3(&buf, p, pts, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2*") {
		t.Error("Figure3 elbow marker missing")
	}

	buf.Reset()
	if err := Figure4(&buf, p, ev); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "demo_sum") {
		t.Error("Figure4 missing codelet rows")
	}

	buf.Reset()
	if err := Figure5(&buf, p, []*pipeline.Eval{ev}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "demo") {
		t.Error("Figure5 missing app row")
	}

	buf.Reset()
	if err := Figure6(&buf, []*pipeline.Eval{ev}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Real speedup") {
		t.Error("Figure6 header missing")
	}

	st, err := p.RandomClusterings(features.DefaultMask(), 2, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Figure7(&buf, "Atom", []pipeline.RandomClusteringStats{st}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "random best") {
		t.Error("Figure7 header missing")
	}

	pp, err := p.PerAppSubsetting(context.Background(), features.DefaultMask(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := p.CrossAppPoint(features.DefaultMask(), 1)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Figure8(&buf, p, []pipeline.PerAppPoint{cp}, []pipeline.PerAppPoint{pp}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "across-apps") || !strings.Contains(out, "per-app") {
		t.Errorf("Figure8 output:\n%s", out)
	}
}

func TestCSVExports(t *testing.T) {
	p, _, ev := fixture(t)
	var buf bytes.Buffer
	if err := EvalCSV(&buf, p, ev); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != p.N()+1 {
		t.Errorf("EvalCSV rows = %d, want %d", len(lines), p.N()+1)
	}
	if !strings.HasPrefix(lines[0], "app,codelet,ref_s") {
		t.Errorf("EvalCSV header = %q", lines[0])
	}

	pts, err := p.SweepKContext(context.Background(), features.DefaultMask(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := SweepCSV(&buf, p, pts); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+2*len(p.Targets) {
		t.Errorf("SweepCSV rows = %d", len(lines))
	}

	buf.Reset()
	if err := FeaturesCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != p.N()+1 {
		t.Errorf("FeaturesCSV rows = %d", len(lines))
	}
	if got := strings.Count(lines[0], ","); got != 2+features.NumFeatures-1 {
		t.Errorf("FeaturesCSV columns = %d", got+1)
	}
}

func TestDendrogramTree(t *testing.T) {
	p, sub, _ := fixture(t)
	var buf bytes.Buffer
	if err := DendrogramTree(&buf, p, sub); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"└──", "demo_copy", "[C", "(h="} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
	// Every codelet appears exactly once.
	for _, c := range p.Codelets {
		if strings.Count(out, c.Name) != 1 {
			t.Errorf("codelet %s appears %d times", c.Name, strings.Count(out, c.Name))
		}
	}
	// External partition fallback.
	labels := make([]int, p.N())
	ext, err := p.SubsetFromLabels(features.DefaultMask(), labels)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := DendrogramTree(&buf, p, ext); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no dendrogram") {
		t.Error("missing fallback notice")
	}
}

// TestSelectJSONSkipsDegradedApps: a degraded AppEval sums its failed
// measurements as zeros, so it must never win an application; an app
// degraded on every target has no winners and does not agree. The
// ranking keeps predicted-speedup ties in target order.
func TestSelectJSONSkipsDegradedApps(t *testing.T) {
	ms := arch.Targets()
	app := func(name string, pred, actual float64, degraded bool) pipeline.AppEval {
		return pipeline.AppEval{Name: name, PredSec: pred, ActualSec: actual, Degraded: degraded}
	}
	evals := []*pipeline.Eval{
		{Target: ms[0], GeoMeanPredictedSpeedup: 1.5, GeoMeanRealSpeedup: 1, Apps: []pipeline.AppEval{
			app("clean", 2, 2, false), app("partial", 0.1, 0.1, true), app("lost", 0, 0, true),
		}},
		{Target: ms[1], GeoMeanPredictedSpeedup: 2, GeoMeanRealSpeedup: 3, Apps: []pipeline.AppEval{
			app("clean", 1, 1, false), app("partial", 5, 4, false), app("lost", 0, 0, true),
		}},
		{Target: ms[2], GeoMeanPredictedSpeedup: 1.5, GeoMeanRealSpeedup: 2, Apps: []pipeline.AppEval{
			app("clean", 3, 3, false), app("partial", 4, 5, false), app("lost", 0, 0, true),
		}},
	}
	sj := NewSelectJSON(nil, &pipeline.Subset{Selection: &represent.Selection{K: 2}}, evals)

	var ranking []string
	for _, e := range sj.Ranking {
		ranking = append(ranking, e.Target)
	}
	if want := []string{ms[1].Name, ms[0].Name, ms[2].Name}; !slices.Equal(ranking, want) {
		t.Errorf("ranking = %v, want %v", ranking, want)
	}
	if sj.BestPredicted != ms[1].Name || sj.BestMeasured != ms[1].Name || !sj.Agree {
		t.Errorf("best predicted/measured = %s/%s agree=%v, want %s twice", sj.BestPredicted, sj.BestMeasured, sj.Agree, ms[1].Name)
	}
	want := []AppWinnerJSON{
		{App: "clean", PredictedWinner: ms[1].Name, MeasuredWinner: ms[1].Name, Agree: true},
		{App: "partial", PredictedWinner: ms[2].Name, MeasuredWinner: ms[1].Name},
		{App: "lost"},
	}
	if !slices.Equal(sj.Apps, want) {
		t.Errorf("apps = %+v\nwant   %+v", sj.Apps, want)
	}
}

// Package report renders the paper's tables and figures as aligned
// text, consuming the structured results produced by internal/pipeline.
// Each function mirrors one artifact of the evaluation section; the
// benchmark harness and cmd/fgbs print these for side-by-side
// comparison with the published numbers.
package report

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"fgbs/internal/arch"
	"fgbs/internal/features"
	"fgbs/internal/maqao"
	"fgbs/internal/pipeline"
)

func tw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// Table1 renders the test-architecture table.
func Table1(w io.Writer, machines []*arch.Machine) error {
	t := tw(w)
	fmt.Fprintln(t, "Machine\tCPU\tGHz\tCores\tL1/core\tLLC\tIn-order\tMemBW B/cyc")
	for _, m := range machines {
		fmt.Fprintf(t, "%s\t%s\t%.2f\t%d\t%dB\t%dB\t%v\t%.1f\n",
			m.Name, m.CPU, m.FreqGHz, m.Cores,
			m.Caches[0].SizeBytes, m.LastLevelSize(), m.InOrder, m.MemBWBytesPerCycle)
	}
	return t.Flush()
}

// Table2 renders a feature subset like the paper's Table 2, grouped
// by provenance.
func Table2(w io.Writer, mask features.Mask) error {
	t := tw(w)
	fmt.Fprintln(t, "Group\tFeature")
	cat := features.Catalog()
	for _, g := range []features.Group{features.GroupLikwid, features.GroupMAQAO, features.GroupStructure} {
		for _, i := range mask.Indices() {
			if cat[i].Group == g {
				fmt.Fprintf(t, "%s\t%s\n", g, cat[i].Name)
			}
		}
	}
	return t.Flush()
}

// Table3 renders the per-codelet clustering table (NR, K clusters):
// cluster id, codelet, computation pattern, strides, vectorization
// ratio and target speedup, with representatives in angle brackets.
func Table3(w io.Writer, p *pipeline.Profile, sub *pipeline.Subset, ev *pipeline.Eval) error {
	t := tw(w)
	fmt.Fprintln(t, "C\tCodelet\tComputation Pattern\tStride\tVec.%\ts")
	reps := map[int]bool{}
	for _, r := range sub.Selection.Reps {
		reps[r] = true
	}
	order := make([]int, p.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sub.Selection.Labels[order[a]] < sub.Selection.Labels[order[b]]
	})
	for _, i := range order {
		c := p.Codelets[i]
		st := maqao.Analyze(p.Progs[i], c, p.Ref)
		name := c.Name
		speedup := p.RefInApp[i] / ev.Actual[i]
		s := fmt.Sprintf("%.2f", speedup)
		if reps[i] {
			name = "<" + name + ">"
			s = "<" + s + ">"
		}
		strides := ""
		for k, lc := range c.InnermostLoops() {
			if k > 0 {
				strides += " | "
			}
			set := p.Progs[i].StrideSet(lc)
			for j, sd := range set {
				if j > 0 {
					strides += " & "
				}
				strides += sd
			}
		}
		fmt.Fprintf(t, "%d\t%s\t%s\t%s\t%.0f\t%s\n",
			sub.Selection.Labels[i]+1, name, c.Pattern, strides, st.VecRatioAll*100, s)
	}
	return t.Flush()
}

// Table4 renders NR prediction errors for a set of cluster counts.
func Table4(w io.Writer, p *pipeline.Profile, mask features.Mask, ks []int, targetNames []string) error {
	t := tw(w)
	header := "K"
	for _, n := range targetNames {
		header += fmt.Sprintf("\t%s median\t%s average", n, n)
	}
	fmt.Fprintln(t, header)
	for _, k := range ks {
		sub, err := p.Subset(mask, k)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%d", k)
		for _, n := range targetNames {
			ti, err := p.TargetIndex(n)
			if err != nil {
				return err
			}
			ev, err := p.Evaluate(sub, ti)
			if err != nil {
				return err
			}
			row += fmt.Sprintf("\t%.1f%%\t%.1f%%", ev.Summary.Median*100, ev.Summary.Average*100)
		}
		fmt.Fprintln(t, row)
	}
	return t.Flush()
}

// Table5 renders the benchmarking-reduction breakdown per target.
func Table5(w io.Writer, p *pipeline.Profile, sub *pipeline.Subset) error {
	t := tw(w)
	fmt.Fprintf(t, "Reduction (%d representatives)\tTotal\tReduced invocations\tClustering\n", sub.K())
	for ti, m := range p.Targets {
		ev, err := p.Evaluate(sub, ti)
		if err != nil {
			return err
		}
		r := ev.Reduction
		fmt.Fprintf(t, "%s\t%.1f\tx%.1f\tx%.1f\n", m.Name, r.Total, r.InvocationFactor, r.ClusteringFactor)
	}
	return t.Flush()
}

// Figure2 renders predicted vs real per-invocation times for the
// codelets of the given clusters (ms per invocation).
func Figure2(w io.Writer, p *pipeline.Profile, sub *pipeline.Subset, ev *pipeline.Eval, clusters []int) error {
	t := tw(w)
	fmt.Fprintf(t, "Cluster\tCodelet\tReference(ms)\t%s real(ms)\t%s predicted(ms)\terror\n",
		ev.Target.Name, ev.Target.Name)
	want := map[int]bool{}
	for _, c := range clusters {
		want[c] = true
	}
	reps := map[int]bool{}
	for _, r := range sub.Selection.Reps {
		reps[r] = true
	}
	for i := range p.Codelets {
		l := sub.Selection.Labels[i]
		if !want[l] {
			continue
		}
		name := p.Codelets[i].Name
		if reps[i] {
			name = "<" + name + ">"
		}
		fmt.Fprintf(t, "%d\t%s\t%.3f\t%.3f\t%.3f\t%.1f%%\n",
			l+1, name, p.RefInApp[i]*1e3, ev.Actual[i]*1e3, ev.Predicted[i]*1e3, ev.Errors[i]*100)
	}
	return t.Flush()
}

// Figure3 renders the error/reduction trade-off sweep.
func Figure3(w io.Writer, p *pipeline.Profile, points []pipeline.SweepPoint, elbowK int) error {
	t := tw(w)
	header := "K"
	for _, m := range p.Targets {
		header += fmt.Sprintf("\t%s med.err\t%s reduction", m.Name, m.Name)
	}
	fmt.Fprintln(t, header)
	for _, pt := range points {
		row := fmt.Sprintf("%d", pt.K)
		if pt.K == elbowK {
			row += "*"
		}
		for ti := range p.Targets {
			row += fmt.Sprintf("\t%.1f%%\tx%.1f", pt.MedianError[ti]*100, pt.Reduction[ti])
		}
		fmt.Fprintln(t, row)
	}
	fmt.Fprintln(t, "(* = elbow-selected cluster count)")
	return t.Flush()
}

// Figure4 renders per-codelet predicted vs real times grouped by
// application.
func Figure4(w io.Writer, p *pipeline.Profile, ev *pipeline.Eval) error {
	t := tw(w)
	fmt.Fprintf(t, "App\tCodelet\tReference(ms)\t%s real(ms)\tpredicted(ms)\terror\n", ev.Target.Name)
	byApp := p.AppIndices()
	apps := make([]string, 0, len(byApp))
	for a := range byApp {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		for _, i := range byApp[a] {
			fmt.Fprintf(t, "%s\t%s\t%.3f\t%.3f\t%.3f\t%.1f%%\n",
				a, p.Codelets[i].Name, p.RefInApp[i]*1e3, ev.Actual[i]*1e3, ev.Predicted[i]*1e3, ev.Errors[i]*100)
		}
	}
	return t.Flush()
}

// Figure5 renders application-level real vs predicted times per
// target.
func Figure5(w io.Writer, p *pipeline.Profile, evals []*pipeline.Eval) error {
	t := tw(w)
	fmt.Fprintln(t, "Target\tApp\tReference(s)\tReal(s)\tPredicted(s)\terror")
	for _, ev := range evals {
		for _, a := range ev.Apps {
			fmt.Fprintf(t, "%s\t%s\t%.3f\t%.3f\t%.3f\t%.1f%%\n",
				ev.Target.Name, a.Name, a.RefSec, a.ActualSec, a.PredSec, a.ErrorFrac*100)
		}
	}
	return t.Flush()
}

// Figure6 renders geometric-mean speedups per architecture.
func Figure6(w io.Writer, evals []*pipeline.Eval) error {
	t := tw(w)
	fmt.Fprintln(t, "Target\tReal speedup\tPredicted speedup")
	for _, ev := range evals {
		fmt.Fprintf(t, "%s\t%.2f\t%.2f\n", ev.Target.Name, ev.GeoMeanRealSpeedup, ev.GeoMeanPredictedSpeedup)
	}
	return t.Flush()
}

// Figure7 renders the random-clustering comparison rows.
func Figure7(w io.Writer, target string, rows []pipeline.RandomClusteringStats) error {
	t := tw(w)
	fmt.Fprintf(t, "K\t%s guided\trandom best\trandom median\trandom worst\n", target)
	for _, r := range rows {
		fmt.Fprintf(t, "%d\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.K, r.Guided*100, r.Best*100, r.Median*100, r.Worst*100)
	}
	return t.Flush()
}

// Figure8 renders cross-application vs per-application subsetting.
func Figure8(w io.Writer, p *pipeline.Profile, cross, per []pipeline.PerAppPoint) error {
	t := tw(w)
	header := "Reps\tmode"
	for _, m := range p.Targets {
		header += "\t" + m.Name
	}
	fmt.Fprintln(t, header)
	for _, pt := range cross {
		row := fmt.Sprintf("%d\tacross-apps", pt.TotalReps)
		for ti := range p.Targets {
			row += fmt.Sprintf("\t%.1f%%", pt.MedianError[ti]*100)
		}
		fmt.Fprintln(t, row)
	}
	for _, pt := range per {
		row := fmt.Sprintf("%d\tper-app", pt.TotalReps)
		for ti := range p.Targets {
			row += fmt.Sprintf("\t%.1f%%", pt.MedianError[ti]*100)
		}
		if len(pt.ExcludedApps) > 0 {
			row += fmt.Sprintf("\t(excluded: %v)", pt.ExcludedApps)
		}
		fmt.Fprintln(t, row)
	}
	return t.Flush()
}

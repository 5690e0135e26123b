package pipeline

import (
	"fmt"
	"math"
	"sync"

	"fgbs/internal/arch"
	"fgbs/internal/extract"
	"fgbs/internal/ir"
	"fgbs/internal/predict"
)

// Step E: prediction and evaluation — extrapolate every codelet's time
// on a target from its cluster representative, compare against the
// measured ground truth, and account for the benchmarking-cost
// reduction (Table 5).

// Eval is the Step E outcome on one target architecture.
type Eval struct {
	Target *arch.Machine
	// Per-codelet seconds. Errors[i] is -1 for excluded codelets (no
	// trustworthy measurement; NaN would not survive JSON marshaling).
	Predicted []float64
	Actual    []float64
	Errors    []float64
	Summary   predict.ErrorSummary
	// Excluded counts codelets left out of Summary because a
	// measurement failed past its retry budget — either the codelet's
	// own ground truth on this target, a reference measurement, or its
	// cluster representative's standalone time (which poisons every
	// prediction in that cluster).
	Excluded int
	// Reduction is the benchmarking-cost breakdown (Table 5).
	Reduction predict.ReductionBreakdown
	// Apps aggregates application-level results (Figure 5), aligned
	// with Profile.Apps().
	Apps []AppEval
	// GeoMeanRealSpeedup / GeoMeanPredictedSpeedup summarize Figure 6.
	GeoMeanRealSpeedup      float64
	GeoMeanPredictedSpeedup float64

	// enc is the once-only encoding slot behind Encoded.
	enc struct {
		once sync.Once
		b    []byte
		err  error
	}
}

// Encoded returns encode(ev), computed by the first call and returned
// by every later one whatever encoder it passes: an Eval never changes
// once built, so its encoding need not either, and it lives exactly as
// long as the Eval (for a staged Eval, its predict artifact). Callers
// share the bytes and must not modify them.
func (ev *Eval) Encoded(encode func(*Eval) ([]byte, error)) ([]byte, error) {
	ev.enc.once.Do(func() { ev.enc.b, ev.enc.err = encode(ev) })
	return ev.enc.b, ev.enc.err
}

// AppEval is one application's measured and predicted times. Degraded
// marks an application containing excluded codelets: its sums include
// failed (zero) measurements, its ErrorFrac is -1, and it is left out
// of the speedup geomeans.
type AppEval struct {
	Name      string
	RefSec    float64
	ActualSec float64
	PredSec   float64
	ErrorFrac float64
	Degraded  bool
}

// Evaluate predicts every codelet's time on target t from the
// subset's representatives and compares with ground truth.
func (p *Profile) Evaluate(sub *Subset, t int) (*Eval, error) {
	if t < 0 || t >= len(p.Targets) {
		return nil, fmt.Errorf("pipeline: target index %d out of range", t)
	}
	repTimes := make([]float64, sub.Selection.K)
	for k, r := range sub.Selection.Reps {
		repTimes[k] = p.TargetStandalone[t][r]
	}
	predicted, err := sub.Model.Predict(repTimes)
	if err != nil {
		return nil, err
	}
	actual := p.TargetInApp[t]
	errs := predict.Errors(predicted, actual)

	// Exclude codelets without trustworthy numbers on this target: a
	// failed reference or ground-truth measurement, or a representative
	// whose standalone time failed here — the model extrapolates the
	// whole cluster from that one number, so its loss poisons every
	// member's prediction.
	excluded := make([]bool, p.N())
	for i := range excluded {
		excluded[i] = p.refFailedAt(i) || p.targetFailedAt(t, i)
	}
	for k, r := range sub.Selection.Reps {
		if !p.refFailedAt(r) && !p.targetFailedAt(t, r) {
			continue
		}
		for i, l := range sub.Selection.Labels {
			if l == k {
				excluded[i] = true
			}
		}
	}
	kept := make([]float64, 0, len(errs))
	nExcluded := 0
	for i := range errs {
		if excluded[i] {
			errs[i] = -1
			nExcluded++
			continue
		}
		kept = append(kept, errs[i])
	}

	// An all-excluded target leaves no errors to summarize; a zero
	// summary with Excluded == N() says "no data" without smuggling
	// NaNs into JSON encoders.
	var summary predict.ErrorSummary
	if len(kept) > 0 {
		summary = predict.Summarize(kept)
	}
	ev := &Eval{
		Target:    p.Targets[t],
		Predicted: predicted,
		Actual:    actual,
		Errors:    errs,
		Summary:   summary,
		Excluded:  nExcluded,
	}
	ev.Reduction = p.reduction(sub, t)

	apps := p.Apps()
	var refApp, realApp, predApp []float64
	for _, a := range apps {
		ae := AppEval{
			Name:      a.Name,
			RefSec:    a.AppTimes(p.RefInApp),
			ActualSec: a.AppTimes(actual),
			PredSec:   a.AppTimes(predicted),
		}
		for _, i := range a.Codelets {
			if excluded[i] {
				ae.Degraded = true
				break
			}
		}
		if ae.Degraded {
			// Partial sums would masquerade as real application times;
			// flag instead of reporting a number built on zeros.
			ae.ErrorFrac = -1
			ev.Apps = append(ev.Apps, ae)
			continue
		}
		if ae.ActualSec > 0 {
			ae.ErrorFrac = abs(ae.PredSec-ae.ActualSec) / ae.ActualSec
		}
		ev.Apps = append(ev.Apps, ae)
		refApp = append(refApp, ae.RefSec)
		realApp = append(realApp, ae.ActualSec)
		predApp = append(predApp, ae.PredSec)
	}
	// With every application degraded there is no speedup to report;
	// zeros (plus Excluded) beat NaNs that JSON cannot carry.
	if len(refApp) > 0 {
		ev.GeoMeanRealSpeedup = predict.GeoMeanSpeedup(refApp, realApp)
		ev.GeoMeanPredictedSpeedup = predict.GeoMeanSpeedup(refApp, predApp)
	}
	return ev, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// reduction computes the Table 5 accounting for one subset and target.
func (p *Profile) reduction(sub *Subset, t int) predict.ReductionBreakdown {
	return p.ReductionWithRule(sub, t, extract.MinBenchSeconds, extract.MinInvocations)
}

// ReductionWithRule computes the Table 5 accounting under an explicit
// invocation-reduction rule (ablation A4 varies the 1 ms / 10
// invocation thresholds).
func (p *Profile) ReductionWithRule(sub *Subset, t int, minBenchSeconds float64, minInvocations int) predict.ReductionBreakdown {
	rule := func(sa float64) float64 {
		if sa <= 0 {
			return float64(minInvocations)
		}
		n := math.Ceil(minBenchSeconds / sa)
		if n < float64(minInvocations) {
			n = float64(minInvocations)
		}
		return n
	}
	full := 0.0
	for _, a := range p.Apps() {
		full += a.AppTimes(p.TargetInApp[t])
	}
	reducedAll := 0.0
	for i := range p.Codelets {
		sa := p.TargetStandalone[t][i]
		reducedAll += rule(sa) * sa
	}
	reps := 0.0
	for _, r := range sub.Selection.Reps {
		sa := p.TargetStandalone[t][r]
		reps += rule(sa) * sa
	}
	return predict.Reduction(full, reducedAll, reps)
}

// Apps derives the predict.App descriptors from the profile's
// programs (indices into the flattened codelet arrays).
func (p *Profile) Apps() []*predict.App {
	var apps []*predict.App
	index := map[*ir.Program]*predict.App{}
	for i, prog := range p.Progs {
		a, ok := index[prog]
		if !ok {
			a = &predict.App{Name: prog.Name, UncoveredFraction: prog.UncoveredFraction}
			index[prog] = a
			apps = append(apps, a)
		}
		a.Codelets = append(a.Codelets, i)
		a.Invocations = append(a.Invocations, p.Codelets[i].Invocations)
	}
	return apps
}

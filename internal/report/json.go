package report

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"

	"fgbs/internal/pipeline"
)

// JSON encodings of the pipeline's results, shared by the CLI export
// experiment (fgbs export -what evaljson|subsetjson|select) and the
// fgbsd HTTP API: both render the same structures, so a client can
// switch between the one-shot CLI and the long-running service without
// changing its parser.

// SubsetJSON is the wire form of one Subset (Steps C and D).
type SubsetJSON struct {
	Suite      string        `json:"suite,omitempty"`
	Mask       string        `json:"mask"`
	Features   []string      `json:"features"`
	RequestedK int           `json:"requestedK"`
	K          int           `json:"k"`
	Destroyed  int           `json:"destroyedClusters"`
	Clusters   []ClusterJSON `json:"clusters"`
}

// ClusterJSON is one final cluster with its representative.
type ClusterJSON struct {
	ID             int      `json:"id"`
	Representative string   `json:"representative"`
	Members        []string `json:"members"`
}

// EvalJSON is the wire form of one Eval (Step E) on one target.
type EvalJSON struct {
	Target                  string            `json:"target"`
	MedianError             float64           `json:"medianError"`
	AverageError            float64           `json:"averageError"`
	MaxError                float64           `json:"maxError"`
	Reduction               ReductionJSON     `json:"reduction"`
	GeoMeanRealSpeedup      float64           `json:"geoMeanRealSpeedup"`
	GeoMeanPredictedSpeedup float64           `json:"geoMeanPredictedSpeedup"`
	Apps                    []AppEvalJSON     `json:"apps"`
	Codelets                []CodeletEvalJSON `json:"codelets,omitempty"`
}

// ReductionJSON is the Table 5 cost breakdown.
type ReductionJSON struct {
	Total             float64 `json:"total"`
	InvocationFactor  float64 `json:"invocationFactor"`
	ClusteringFactor  float64 `json:"clusteringFactor"`
	FullSeconds       float64 `json:"fullSeconds"`
	ReducedInvSeconds float64 `json:"reducedInvSeconds"`
	RepsSeconds       float64 `json:"repsSeconds"`
}

// AppEvalJSON is one application's measured and predicted times.
type AppEvalJSON struct {
	Name      string  `json:"name"`
	RefSec    float64 `json:"refSeconds"`
	ActualSec float64 `json:"actualSeconds"`
	PredSec   float64 `json:"predictedSeconds"`
	ErrorFrac float64 `json:"errorFraction"`
}

// CodeletEvalJSON is one codelet's per-invocation prediction.
type CodeletEvalJSON struct {
	App       string  `json:"app"`
	Name      string  `json:"codelet"`
	RefSec    float64 `json:"refSeconds"`
	ActualSec float64 `json:"actualSeconds"`
	PredSec   float64 `json:"predictedSeconds"`
	RelError  float64 `json:"relError"`
}

// SelectJSON ranks the target systems for a suite — the paper's
// headline use case: pick the machine to buy from the reduced
// benchmark set alone.
type SelectJSON struct {
	Suite string `json:"suite,omitempty"`
	K     int    `json:"k"`
	// BestPredicted is the target the reduced set recommends (highest
	// predicted geometric-mean speedup over the reference).
	BestPredicted string `json:"bestPredicted"`
	// BestMeasured is the target the full ground truth would pick.
	BestMeasured string            `json:"bestMeasured"`
	Agree        bool              `json:"agree"`
	Ranking      []SelectEntryJSON `json:"ranking"`
	Apps         []AppWinnerJSON   `json:"apps"`
}

// SelectEntryJSON is one target's standing in the ranking, ordered by
// predicted speedup (best first).
type SelectEntryJSON struct {
	Target                  string  `json:"target"`
	GeoMeanPredictedSpeedup float64 `json:"geoMeanPredictedSpeedup"`
	GeoMeanRealSpeedup      float64 `json:"geoMeanRealSpeedup"`
	MedianError             float64 `json:"medianError"`
	Reduction               float64 `json:"reduction"`
}

// AppWinnerJSON is the per-application selection duel: which target
// the prediction picks for one app vs. the ground truth (§4.4 — the
// best machine depends on the application).
type AppWinnerJSON struct {
	App             string `json:"app"`
	PredictedWinner string `json:"predictedWinner"`
	MeasuredWinner  string `json:"measuredWinner"`
	Agree           bool   `json:"agree"`
}

// codeletID qualifies a codelet name with its application, matching
// the (app, codelet) identity the profile cache uses.
func codeletID(p *pipeline.Profile, i int) string {
	return p.Progs[i].Name + "/" + p.Codelets[i].Name
}

// NewSubsetJSON builds the wire form of a subset.
func NewSubsetJSON(p *pipeline.Profile, sub *pipeline.Subset) *SubsetJSON {
	sj := &SubsetJSON{
		Mask:       sub.Mask.String(),
		Features:   sub.Mask.Names(),
		RequestedK: sub.RequestedK,
		K:          sub.K(),
		Destroyed:  sub.Selection.Destroyed,
		Clusters:   make([]ClusterJSON, sub.K()),
	}
	for c := range sj.Clusters {
		sj.Clusters[c].ID = c
		sj.Clusters[c].Representative = codeletID(p, sub.Selection.Reps[c])
	}
	for i, l := range sub.Selection.Labels {
		sj.Clusters[l].Members = append(sj.Clusters[l].Members, codeletID(p, i))
	}
	return sj
}

// NewEvalJSON builds the wire form of one evaluation.
func NewEvalJSON(p *pipeline.Profile, ev *pipeline.Eval) *EvalJSON {
	ej := &EvalJSON{
		Target:       ev.Target.Name,
		MedianError:  ev.Summary.Median,
		AverageError: ev.Summary.Average,
		MaxError:     ev.Summary.Max,
		Reduction: ReductionJSON{
			Total:             ev.Reduction.Total,
			InvocationFactor:  ev.Reduction.InvocationFactor,
			ClusteringFactor:  ev.Reduction.ClusteringFactor,
			FullSeconds:       ev.Reduction.FullSeconds,
			ReducedInvSeconds: ev.Reduction.ReducedInvSeconds,
			RepsSeconds:       ev.Reduction.RepsSeconds,
		},
		GeoMeanRealSpeedup:      ev.GeoMeanRealSpeedup,
		GeoMeanPredictedSpeedup: ev.GeoMeanPredictedSpeedup,
	}
	for _, a := range ev.Apps {
		ej.Apps = append(ej.Apps, AppEvalJSON{
			Name: a.Name, RefSec: a.RefSec, ActualSec: a.ActualSec,
			PredSec: a.PredSec, ErrorFrac: a.ErrorFrac,
		})
	}
	for i := range p.Codelets {
		ej.Codelets = append(ej.Codelets, CodeletEvalJSON{
			App:       p.Progs[i].Name,
			Name:      p.Codelets[i].Name,
			RefSec:    p.RefInApp[i],
			ActualSec: ev.Actual[i],
			PredSec:   ev.Predicted[i],
			RelError:  ev.Errors[i],
		})
	}
	return ej
}

// EvalEncoder returns the encoder of p's evaluations,
// json.Marshal(NewEvalJSON(p, ev)), for Eval.Encoded: every Eval
// evaluated on p encodes at most once, and later callers share its
// bytes.
func EvalEncoder(p *pipeline.Profile) func(*pipeline.Eval) ([]byte, error) {
	return func(ev *pipeline.Eval) ([]byte, error) {
		return json.Marshal(NewEvalJSON(p, ev))
	}
}

// NewSelectJSON ranks all targets from their evaluations (aligned
// with p.Targets) and decides the per-application winners.
func NewSelectJSON(p *pipeline.Profile, sub *pipeline.Subset, evals []*pipeline.Eval) *SelectJSON {
	sj := &SelectJSON{K: sub.K()}
	for _, ev := range evals {
		sj.Ranking = append(sj.Ranking, SelectEntryJSON{
			Target:                  ev.Target.Name,
			GeoMeanPredictedSpeedup: ev.GeoMeanPredictedSpeedup,
			GeoMeanRealSpeedup:      ev.GeoMeanRealSpeedup,
			MedianError:             ev.Summary.Median,
			Reduction:               ev.Reduction.Total,
		})
	}
	// By predicted speedup, best first; stability keeps ties in target
	// order.
	slices.SortStableFunc(sj.Ranking, func(a, b SelectEntryJSON) int {
		return cmp.Compare(b.GeoMeanPredictedSpeedup, a.GeoMeanPredictedSpeedup)
	})
	if len(sj.Ranking) > 0 {
		sj.BestPredicted = sj.Ranking[0].Target
		best := 0
		for i, e := range sj.Ranking {
			if e.GeoMeanRealSpeedup > sj.Ranking[best].GeoMeanRealSpeedup {
				best = i
			}
		}
		sj.BestMeasured = sj.Ranking[best].Target
		sj.Agree = sj.BestPredicted == sj.BestMeasured
	}

	// Per-application winners: fastest predicted vs. fastest measured
	// whole-application time across the targets. A degraded entry's
	// sums count failed measurements as zeros, so it never wins; an app
	// degraded on every target has no winners and does not agree.
	if len(evals) > 0 {
		for a := range evals[0].Apps {
			w := AppWinnerJSON{App: evals[0].Apps[a].Name}
			predBest, realBest := 0.0, 0.0
			for _, ev := range evals {
				ae := ev.Apps[a]
				if ae.Degraded {
					continue
				}
				if w.PredictedWinner == "" || ae.PredSec < predBest {
					w.PredictedWinner, predBest = ev.Target.Name, ae.PredSec
				}
				if w.MeasuredWinner == "" || ae.ActualSec < realBest {
					w.MeasuredWinner, realBest = ev.Target.Name, ae.ActualSec
				}
			}
			w.Agree = w.PredictedWinner != "" && w.PredictedWinner == w.MeasuredWinner
			sj.Apps = append(sj.Apps, w)
		}
	}
	return sj
}

// WriteJSON writes v as indented JSON — the CLI export format.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

package pipeline

import (
	"fgbs/internal/cluster"
	"fgbs/internal/features"
	"fgbs/internal/predict"
	"fgbs/internal/represent"
)

// Step D: representative selection over a cut — extraction screening
// (the 10% rule, carried in Profile.IllBehaved) plus the §3.4
// dissolution/reselection loop via internal/represent, finished with
// the prediction model the representatives anchor.

func (p *Profile) finishSubset(mask features.Mask, k int, d *cluster.Dendrogram, pts [][]float64, labels []int, cfg SubsetConfig) (*Subset, error) {
	ill := p.IllBehaved
	if cfg.IgnoreScreening {
		ill = make([]bool, p.N())
	}
	sel, err := represent.Select(pts, labels, ill)
	if err != nil {
		return nil, err
	}
	if cfg.RepStrategy == RepFirst {
		// Same clusters and dissolutions; each representative becomes
		// the cluster's lowest-indexed eligible member.
		for c := range sel.Reps {
			for i, l := range sel.Labels {
				if l == c && !ill[i] {
					sel.Reps[c] = i
					break
				}
			}
		}
	}
	model, err := predict.NewModel(p.RefInApp, sel.Labels, sel.Reps)
	if err != nil {
		return nil, err
	}
	return &Subset{
		Mask: mask, RequestedK: k, Dendro: d, Points: pts,
		Selection: sel, Model: model,
	}, nil
}

package pipeline

import (
	"fgbs/internal/cluster"
	"fgbs/internal/features"
	"fgbs/internal/predict"
	"fgbs/internal/represent"
)

// Step C: feature normalization (§3.3) and Ward hierarchical
// clustering, with a manual K or the elbow rule. The Subset type and
// its configuration live here because a subset is requested through
// Step C's parameters; the representative-selection half of building
// one is represent.go's finishSubset.

// NormalizedPoints applies the mask and z-score normalization (§3.3)
// to the profile's feature matrix.
func (p *Profile) NormalizedPoints(mask features.Mask) [][]float64 {
	pts := mask.ApplyMatrix(p.Features)
	// Copy before normalizing: the profile's features stay raw.
	out := make([][]float64, len(pts))
	for i, row := range pts {
		out[i] = append([]float64(nil), row...)
	}
	features.NormalizeMatrix(out)
	return out
}

// Subset is the outcome of Steps C and D for one feature mask and one
// cluster count.
type Subset struct {
	Mask features.Mask
	// RequestedK is the dendrogram cut: the K asked for, or the elbow
	// rule's K when the caller passed K <= 0. SubsetFromLabels cuts no
	// dendrogram and stores 0.
	RequestedK int
	Dendro     *cluster.Dendrogram
	Points     [][]float64
	Selection  *represent.Selection
	Model      *predict.Model
}

// K returns the final cluster count after ill-behaved dissolutions.
func (s *Subset) K() int { return s.Selection.K }

// RepStrategy selects how a cluster's representative is chosen
// (ablation A3; the paper uses the centroid-closest member).
type RepStrategy uint8

const (
	// RepCentroid picks the member closest to the cluster centroid.
	RepCentroid RepStrategy = iota
	// RepFirst picks the lowest-indexed eligible member (an arbitrary
	// but deterministic choice).
	RepFirst
)

// SubsetConfig tunes Steps C and D for the ablation studies. The zero
// value is the paper's configuration.
type SubsetConfig struct {
	Linkage cluster.Linkage
	// NoNormalize skips the z-score normalization of §3.3 (A2).
	NoNormalize bool
	// RepStrategy overrides the representative choice (A3).
	RepStrategy RepStrategy
	// IgnoreScreening treats every codelet as well-behaved (A5).
	IgnoreScreening bool
}

// Subset runs clustering (Ward) and representative selection. Pass
// k <= 0 to let the elbow rule choose the cut.
func (p *Profile) Subset(mask features.Mask, k int) (*Subset, error) {
	return p.SubsetWith(mask, k, SubsetConfig{})
}

// SubsetWith is Subset with explicit Step C/D configuration.
func (p *Profile) SubsetWith(mask features.Mask, k int, cfg SubsetConfig) (*Subset, error) {
	pts := p.points(mask, cfg)
	d, err := cluster.Build(pts, cfg.Linkage)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = d.Elbow(pts, p.maxElbowK(), 0)
	}
	labels := d.Cut(k)
	return p.finishSubset(mask, k, d, pts, labels, cfg)
}

// SubsetFromLabels applies Steps D and E to an externally provided
// partition (the random-clustering baseline of Figure 7).
func (p *Profile) SubsetFromLabels(mask features.Mask, labels []int) (*Subset, error) {
	cfg := SubsetConfig{}
	pts := p.points(mask, cfg)
	return p.finishSubset(mask, 0, nil, pts, labels, cfg)
}

func (p *Profile) points(mask features.Mask, cfg SubsetConfig) [][]float64 {
	if cfg.NoNormalize {
		return mask.ApplyMatrix(p.Features)
	}
	return p.NormalizedPoints(mask)
}

// maxElbowK mirrors the paper's sweep ranges: up to 24 clusters.
func (p *Profile) maxElbowK() int {
	if p.N() < 24 {
		return p.N()
	}
	return 24
}

package pipeline

import (
	"context"
	"fmt"
	"math"
	"slices"

	"fgbs/internal/features"
	"fgbs/internal/ga"
	"fgbs/internal/rng"
	"fgbs/internal/stats"
)

// SweepPoint is one K of the accuracy/reduction trade-off (Figure 3).
type SweepPoint struct {
	K           int // requested cut
	FinalK      int // after ill-behaved dissolutions
	MedianError []float64
	Reduction   []float64
}

// SweepKContext evaluates cluster counts kMin..kMax on every target,
// producing Figure 3's two curves per architecture. Cancellation is
// checked between cluster counts (each K is seconds of clustering +
// evaluation on a full suite); on cancellation the context's error is
// returned. It is the serial oracle for Staged.SweepK.
func (p *Profile) SweepKContext(ctx context.Context, mask features.Mask, kMin, kMax int) ([]SweepPoint, error) {
	var out []SweepPoint
	for k := kMin; k <= kMax && k <= p.N(); k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pt, err := p.sweepPoint(mask, k)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// sweepPoint computes one K of the sweep. It is pure in (mask, k), the
// property that lets Staged.SweepK fan K values out and merge the
// points back in order with results identical to the serial loop.
//
//fgbs:hot
func (p *Profile) sweepPoint(mask features.Mask, k int) (SweepPoint, error) {
	sub, err := p.Subset(mask, k)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("pipeline: sweep k=%d: %w", k, err)
	}
	pt := SweepPoint{K: k, FinalK: sub.K()}
	pt.MedianError = make([]float64, 0, len(p.Targets))
	pt.Reduction = make([]float64, 0, len(p.Targets))
	for t := range p.Targets {
		ev, err := p.Evaluate(sub, t)
		if err != nil {
			return SweepPoint{}, err
		}
		pt.MedianError = append(pt.MedianError, ev.Summary.Median)
		pt.Reduction = append(pt.Reduction, ev.Reduction.Total)
	}
	return pt, nil
}

// RandomClusteringStats is Figure 7's envelope for one K and one
// target: the best/median/worst median-error over random partitions,
// against the feature-guided clustering's result.
type RandomClusteringStats struct {
	K                   int
	Best, Median, Worst float64
	Guided              float64
}

// RandomClusterings compares the mask-guided Ward clustering against
// `trials` uniformly random partitions into K clusters (Figure 7). It
// is the serial oracle for Staged.RandomClusterings: every trial draws
// from its own generator seeded by trialSeeds, so trial i's partition
// depends only on (seed, i), and the staged per-trial fan-out is
// byte-identical to this loop.
func (p *Profile) RandomClusterings(mask features.Mask, k, trials int, t int, seed uint64) (RandomClusteringStats, error) {
	res, err := p.guidedStats(mask, k, t)
	if err != nil {
		return RandomClusteringStats{}, err
	}
	seeds := trialSeeds(seed, trials)
	errs := make([]float64, trials)
	for trial := 0; trial < trials; trial++ {
		errs[trial], err = p.randomTrial(mask, seeds[trial], k, t)
		if err != nil {
			return RandomClusteringStats{}, err
		}
	}
	return finishRandomStats(res, errs), nil
}

// guidedStats computes the feature-guided side of the Figure 7 duel.
func (p *Profile) guidedStats(mask features.Mask, k, t int) (RandomClusteringStats, error) {
	sub, err := p.Subset(mask, k)
	if err != nil {
		return RandomClusteringStats{}, err
	}
	ev, err := p.Evaluate(sub, t)
	if err != nil {
		return RandomClusteringStats{}, err
	}
	return RandomClusteringStats{K: k, Guided: ev.Summary.Median}, nil
}

// randomTrial runs one random partition and returns its median error.
func (p *Profile) randomTrial(mask features.Mask, seed uint64, k, t int) (float64, error) {
	labels := randomPartition(rng.New(seed), p.N(), k)
	rsub, err := p.SubsetFromLabels(mask, labels)
	if err != nil {
		// A random cluster can be entirely ill-behaved with no
		// surviving neighbor cluster only if everything is
		// ill-behaved, which Profile construction precludes; any
		// other error is fatal.
		return 0, err
	}
	rev, err := p.Evaluate(rsub, t)
	if err != nil {
		return 0, err
	}
	return rev.Summary.Median, nil
}

// trialSeeds derives one independent sub-seed per trial from the base
// seed (one SplitMix64 stream, consumed up front), so a trial's
// outcome is a pure function of (seed, trial index) regardless of
// which worker runs it.
func trialSeeds(seed uint64, trials int) []uint64 {
	r := rng.New(seed)
	s := make([]uint64, trials)
	for i := range s {
		s[i] = r.Uint64()
	}
	return s
}

// finishRandomStats folds per-trial errors into the Figure 7 envelope.
func finishRandomStats(res RandomClusteringStats, errs []float64) RandomClusteringStats {
	res.Best = stats.Min(errs)
	res.Median = stats.Median(errs)
	res.Worst = stats.Max(errs)
	return res
}

// randomPartition draws a uniform surjective assignment of n items to
// k labels (every label non-empty).
func randomPartition(r *rng.RNG, n, k int) []int {
	if k > n {
		k = n
	}
	labels := make([]int, n)
	for {
		for i := range labels {
			labels[i] = r.Intn(k)
		}
		seen := make([]bool, k)
		cnt := 0
		for _, l := range labels {
			if !seen[l] {
				seen[l] = true
				cnt++
			}
		}
		if cnt == k {
			return labels
		}
	}
}

// PerAppPoint is one budget point of Figure 8.
type PerAppPoint struct {
	// RepsPerApp is the representative budget given to each
	// application (total budget = RepsPerApp x number of predictable
	// apps for per-app subsetting).
	RepsPerApp int
	// TotalReps actually used.
	TotalReps int
	// MedianError per target.
	MedianError []float64
	// ExcludedApps lists applications that could not be predicted
	// per-app (all representatives ill-behaved — MG in the paper).
	ExcludedApps []string
}

// PerAppSubsetting runs Steps A-E separately on each application with
// repsPerApp representatives each, aggregating per-codelet errors
// (Figure 8's "Per Application" series). Applications whose clusters
// are all ill-behaved are excluded, as the paper excludes MG.
// Cancellation is checked between applications.
func (p *Profile) PerAppSubsetting(ctx context.Context, mask features.Mask, repsPerApp int) (PerAppPoint, error) {
	pt := PerAppPoint{RepsPerApp: repsPerApp, MedianError: make([]float64, len(p.Targets))}
	perTargetErrs := make([][]float64, len(p.Targets))

	appIdx := p.AppIndices()
	for _, name := range sortedKeys(appIdx) {
		if err := ctx.Err(); err != nil {
			return pt, err
		}
		indices := appIdx[name]
		sp := p.SubProfile(indices)
		k := repsPerApp
		if k > len(indices) {
			k = len(indices)
		}
		sub, err := sp.Subset(mask, k)
		if err != nil {
			// Unpredictable application (every cluster ill-behaved).
			pt.ExcludedApps = append(pt.ExcludedApps, name)
			continue
		}
		pt.TotalReps += sub.K()
		for t := range p.Targets {
			ev, err := sp.Evaluate(sub, t)
			if err != nil {
				return pt, err
			}
			perTargetErrs[t] = append(perTargetErrs[t], ev.Errors...)
		}
	}
	for t := range p.Targets {
		pt.MedianError[t] = stats.Median(perTargetErrs[t])
	}
	return pt, nil
}

// CrossAppPoint evaluates shared (whole-suite) subsetting with a
// total representative budget equal to totalReps (Figure 8's "Across
// Applications" series).
func (p *Profile) CrossAppPoint(mask features.Mask, totalReps int) (PerAppPoint, error) {
	sub, err := p.Subset(mask, totalReps)
	if err != nil {
		return PerAppPoint{}, err
	}
	pt := PerAppPoint{TotalReps: sub.K(), MedianError: make([]float64, len(p.Targets))}
	for t := range p.Targets {
		ev, err := p.Evaluate(sub, t)
		if err != nil {
			return pt, err
		}
		pt.MedianError[t] = ev.Summary.Median
	}
	return pt, nil
}

func sortedKeys(m map[string][]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// FeatureFitness builds the §4.2 GA fitness over this (training)
// profile: max of the two targets' average prediction errors times
// the elbow-selected cluster count. Lower is better. The returned
// function is safe for concurrent use. Cancellation is ga.Run's:
// its fan-out claims no further evaluation once ctx is done.
func (p *Profile) FeatureFitness(targetNames ...string) (ga.Fitness, error) {
	var targets []int
	for _, name := range targetNames {
		t, err := p.TargetIndex(name)
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("pipeline: fitness needs at least one target")
	}
	return func(mask features.Mask) float64 {
		if mask.Count() == 0 {
			return math.Inf(1)
		}
		sub, err := p.Subset(mask, 0) // elbow-selected K
		if err != nil {
			return math.Inf(1)
		}
		worst := 0.0
		for _, t := range targets {
			ev, err := p.Evaluate(sub, t)
			if err != nil {
				return math.Inf(1)
			}
			if ev.Summary.Average > worst {
				worst = ev.Summary.Average
			}
		}
		return worst * float64(sub.K())
	}, nil
}

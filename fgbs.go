// Package fgbs is a Go reproduction of "Fine-grained Benchmark
// Subsetting for System Selection" (de Oliveira Castro, Kashnikov,
// Akel, Popov, Jalby — CGO 2014).
//
// The method reduces the cost of system selection: instead of running
// a whole benchmark suite on every candidate machine, it breaks the
// suite into codelets (outermost loop nests), profiles them once on a
// reference machine, clusters codelets with similar performance
// signatures, and benchmarks only one well-behaved representative per
// cluster on each target — extrapolating every sibling's time through
// the cluster-speedup model.
//
// This package is the public façade. It re-exports (as type aliases)
// the pieces a downstream user needs:
//
//   - machine models standing in for the paper's four Intel systems
//     (Machines, Reference, Targets),
//   - the two benchmark suites written in the loop-nest IR
//     (NRSuite — 28 Numerical Recipes training codelets; NASSuite —
//     7 NAS-like applications, 67 codelets),
//   - the pipeline: NewProfile (Steps A-B), Profile.Subset (Steps
//     C-D), Profile.Evaluate (Step E),
//   - feature masks: PaperFeatures (the paper's Table 2 subset) and
//     DefaultFeatures (this reproduction's GA-equivalent),
//   - the genetic feature selection of §4.2 (SelectFeatures).
//
// A minimal system-selection session:
//
//	prof, err := fgbs.NewProfile(fgbs.NASSuite(), fgbs.Options{Seed: 1})
//	...
//	sub, err := prof.Subset(fgbs.DefaultFeatures(), 0) // elbow-selected K
//	...
//	for t := range prof.Targets {
//	    ev, err := prof.Evaluate(sub, t)
//	    // ev.Summary.Median, ev.Reduction.Total, ev.Apps ...
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package fgbs

import (
	"context"

	"fgbs/internal/arch"
	"fgbs/internal/features"
	"fgbs/internal/ga"
	"fgbs/internal/ir"
	"fgbs/internal/pipeline"
	"fgbs/internal/suites/nas"
	"fgbs/internal/suites/nr"
	"fgbs/internal/suites/poly"
)

// Machine is one modeled architecture (see internal/arch).
type Machine = arch.Machine

// Program is an application decomposed into codelets.
type Program = ir.Program

// Codelet is an outlined outermost loop nest.
type Codelet = ir.Codelet

// Options configures profiling.
type Options = pipeline.Options

// Profile holds Step B's measurements for a suite.
type Profile = pipeline.Profile

// Subset is a clustering plus representative selection.
type Subset = pipeline.Subset

// Eval is a Step E evaluation on one target.
type Eval = pipeline.Eval

// FeatureMask selects a subset of the 76 features.
type FeatureMask = features.Mask

// GAOptions configures genetic feature selection.
type GAOptions = ga.Options

// GAResult is the outcome of genetic feature selection.
type GAResult = ga.Result

// Reference returns the reference machine (Nehalem).
func Reference() *Machine { return arch.Reference() }

// Targets returns the three target machines (Atom, Core 2, Sandy
// Bridge).
func Targets() []*Machine { return arch.Targets() }

// Machines returns reference plus targets, Table 1's four systems.
func Machines() []*Machine { return arch.All() }

// NRSuite returns the 28 Numerical Recipes training programs.
func NRSuite() []*Program { return nr.Suite() }

// NASSuite returns the 7 NAS-like validation applications (67
// codelets).
func NASSuite() []*Program { return nas.Suite() }

// NewProfile runs Steps A and B over suite programs.
func NewProfile(progs []*Program, opts Options) (*Profile, error) {
	return pipeline.NewProfile(progs, opts)
}

// PaperFeatures returns the paper's Table 2 feature subset.
func PaperFeatures() FeatureMask { return features.PaperMask() }

// DefaultFeatures returns this reproduction's default subset: Table 2
// plus the two features our genetic algorithm selects on the modeled
// machines (see features.DefaultMask).
func DefaultFeatures() FeatureMask { return features.DefaultMask() }

// AllFeatures returns the full 76-feature catalog mask.
func AllFeatures() FeatureMask { return features.AllMask() }

// SelectFeatures runs the §4.2 genetic algorithm on a (training)
// profile, scoring masks by max(average error across the named
// targets) x K.
func SelectFeatures(p *Profile, opts GAOptions, targetNames ...string) (*GAResult, error) {
	fitness, err := p.FeatureFitness(targetNames...)
	if err != nil {
		return nil, err
	}
	return ga.Run(context.TODO(), fitness, opts)
}

// PolySuite returns the 18 PolyBench-like extension kernels (see
// internal/suites/poly).
func PolySuite() []*Program { return poly.Suite() }

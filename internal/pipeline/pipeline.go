// Package pipeline orchestrates the five steps of the benchmark
// reduction method (Figure 1), one file per step:
//
//	Step A  codelet detection        — detect.go: the suites provide
//	                                   programs already decomposed into
//	                                   codelets; Detect validates and
//	                                   flattens them.
//	Step B  profiling                — profile.go: Profile measures
//	                                   every codelet in-application on
//	                                   the reference machine, runs the
//	                                   MAQAO-style static analysis, and
//	                                   assembles the 76-entry feature
//	                                   vectors. It also collects the
//	                                   standalone and ground-truth
//	                                   target measurements the
//	                                   evaluation needs.
//	Step C  clustering               — cluster.go: Subset normalizes
//	                                   the masked features (§3.3) and
//	                                   applies Ward hierarchical
//	                                   clustering with a manual K or the
//	                                   elbow rule.
//	Step D  representative selection — represent.go: extraction
//	                                   screening (10% rule) plus the
//	                                   §3.4 reselection loop via
//	                                   internal/represent.
//	Step E  prediction               — predict.go: Evaluate builds the
//	                                   matrix model and compares
//	                                   predictions against the measured
//	                                   ground truth, computing error
//	                                   statistics and the
//	                                   benchmarking-reduction breakdown.
//
// The monolithic entry points (NewProfile, Profile.Subset,
// Profile.Evaluate) run the steps directly and remain the reference
// semantics. stages.go layers the content-addressed internal/stage
// engine on top of the same step functions: ResolveProfile resolves
// Detect→Profile through a stage.Store, and the returned Staged view
// resolves Normalize→Cluster→Represent→Predict per (mask, K, target) —
// byte-identical outputs, but a parameter change recomputes only its
// downstream stages. experiments.go and parallel.go hold the
// experiment drivers, profileio.go the profile serialization.
package pipeline

import (
	"fgbs/internal/arch"
	"fgbs/internal/fault"
)

// MinMeasurableCycles is the profiling floor: codelets below it are
// discarded as unmeasurable, the scaled analogue of the paper's
// "execution time under one million cycles" rule (§3.2).
const MinMeasurableCycles = 25000

// Options configures Profile.
type Options struct {
	// Reference defaults to arch.Reference().
	Reference *arch.Machine
	// Targets defaults to arch.Targets().
	Targets []*arch.Machine
	// Seed drives dataset construction and measurement noise.
	Seed uint64
	// Workers bounds concurrent measurements (0 = GOMAXPROCS).
	Workers int
	// Measurer replaces the clean simulator on the measurement path —
	// typically a measure.Robust stacked over a fault.Injector; nil
	// means fault.Sim{}. Either way each codelet is measured through
	// fault.MeasureGroup: in-app on the reference and every target in
	// one call, then standalone on the reference and every target
	// whose in-app measurement succeeded. A non-nil Measurer's
	// measurement failures no longer abort the profile: they escalate
	// into the §3.4 screening machinery (see Profile.RefFailed /
	// Profile.TargetFailed).
	Measurer fault.Measurer
}

package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"fgbs/internal/arch"
	"fgbs/internal/extract"
	"fgbs/internal/fanout"
	"fgbs/internal/fault"
	"fgbs/internal/features"
	"fgbs/internal/ir"
	"fgbs/internal/maqao"
	"fgbs/internal/sim"
)

// Profile holds every measurement the experiments need: Step B's
// reference profile and features, the standalone (microbenchmark)
// times, and the full-suite ground truth on each target.
//
// A Profile is immutable once built or decoded: Subset,
// Evaluate, NormalizedPoints and the experiment helpers only read it
// (NormalizedPoints copies rows before normalizing), so one Profile
// may be shared by any number of concurrent goroutines — the property
// internal/server relies on to answer queries against a single shared
// profile per suite, and internal/stage relies on to share stored
// artifacts without copying.
type Profile struct {
	Progs    []*ir.Program
	Codelets []*ir.Codelet
	Ref      *arch.Machine
	Targets  []*arch.Machine

	// Per codelet i:
	RefInApp      []float64 // t_ref: in-app median seconds on reference
	RefStandalone []float64 // extracted microbenchmark on reference
	IllBehaved    []bool    // §3.4 screening outcome on reference
	Discarded     []bool    // below the measurement floor
	Features      [][]float64

	// Per target t, per codelet i:
	TargetInApp      [][]float64 // ground truth
	TargetStandalone [][]float64 // microbenchmark on target

	// Failure markers, set only when profiling ran under a fault-aware
	// Measurer (Options.Measurer) and a measurement failed past its
	// retry budget. Both stay nil on a clean build, keeping serialized
	// profiles byte-identical to fault-unaware ones.
	//
	// RefFailed[i] means codelet i lost a reference measurement: it is
	// also marked IllBehaved so represent.Select never picks it as a
	// representative. TargetFailed[t][i] means codelet i has no
	// trustworthy ground truth on target t; Evaluate excludes it from
	// the error statistics instead of comparing against zeros.
	RefFailed    []bool
	TargetFailed [][]bool
}

// Degraded reports whether the profile carries failure markers — i.e.
// it was built under fault escalation and at least one measurement
// exhausted its retries. Servers use this to mark derived answers as
// degraded rather than presenting them as clean results.
func (p *Profile) Degraded() bool {
	return p.RefFailed != nil || p.TargetFailed != nil
}

func (p *Profile) refFailedAt(i int) bool {
	return p.RefFailed != nil && p.RefFailed[i]
}

func (p *Profile) targetFailedAt(t, i int) bool {
	return p.TargetFailed != nil && p.TargetFailed[t][i]
}

// NewProfile runs Steps A and B over the given suite programs and
// gathers all measurements used downstream. Measurements run in
// parallel; results are deterministic.
func NewProfile(progs []*ir.Program, opts Options) (*Profile, error) {
	return NewProfileContext(context.Background(), progs, opts)
}

// NewProfileContext is NewProfile with cancellation: profiling is the
// expensive step (every codelet is simulated on every machine), and a
// server shutting down mid-build must not leave goroutines simulating
// into the void. Cancellation is checked between per-codelet
// measurement jobs; on cancellation the context's error is returned
// and the partial profile is discarded.
func NewProfileContext(ctx context.Context, progs []*ir.Program, opts Options) (*Profile, error) {
	ps, cs, err := Detect(progs)
	if err != nil {
		return nil, err
	}
	return newProfileDetected(ctx, ps, cs, opts)
}

// newProfileDetected is Step B alone: profiling over an already
// detected codelet inventory. The stage engine calls it with the
// memoized detect artifact, so Detect runs exactly once even on a
// cold run; NewProfileContext detects inline for monolithic callers.
// ps and cs are the aligned slices Detect returns and are only read.
func newProfileDetected(ctx context.Context, ps []*ir.Program, cs []*ir.Codelet, opts Options) (*Profile, error) {
	if opts.Reference == nil {
		opts.Reference = arch.Reference()
	}
	if opts.Targets == nil {
		opts.Targets = arch.Targets()
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	n := len(cs)
	pr := &Profile{
		Progs: ps, Codelets: cs,
		Ref: opts.Reference, Targets: opts.Targets,
		RefInApp:      make([]float64, n),
		RefStandalone: make([]float64, n),
		IllBehaved:    make([]bool, n),
		Discarded:     make([]bool, n),
		Features:      make([][]float64, n),
	}
	for range opts.Targets {
		pr.TargetInApp = append(pr.TargetInApp, make([]float64, n))
		pr.TargetStandalone = append(pr.TargetStandalone, make([]float64, n))
	}

	// Shared datasets, one per distinct program (ps repeats a program
	// once per codelet).
	datasets := make(map[*ir.Program]*sim.Dataset)
	for _, p := range ps {
		if _, ok := datasets[p]; ok {
			continue
		}
		ds, err := sim.BuildDataset(p, opts.Seed)
		if err != nil {
			return nil, err
		}
		datasets[p] = ds
	}

	// With a caller's Measurer, a measurement that exhausted its
	// retries degrades the codelet instead of aborting the whole
	// profile. Cancellation still aborts: a dying server is not a
	// flaky target.
	measurer := opts.Measurer
	escalate := measurer != nil
	if escalate {
		pr.RefFailed = make([]bool, n)
		for range opts.Targets {
			pr.TargetFailed = append(pr.TargetFailed, make([]bool, n))
		}
	} else {
		measurer = fault.Sim{}
	}
	machines := append([]*arch.Machine{pr.Ref}, pr.Targets...)

	err := fanout.Run(ctx, n, opts.Workers, func(i int) error {
		// measure measures codelet i in one mode on each of ms with one
		// group call, which walks the codelet once per L1 geometry.
		measure := func(ms []*arch.Machine, mode sim.Mode) ([]*sim.Measurement, []error) {
			return fault.MeasureGroup(ctx, measurer, ps[i], cs[i], ms, sim.Options{
				Mode: mode, Seed: opts.Seed, Dataset: datasets[ps[i]],
			})
		}
		// degrade reports whether a failed measurement degrades the
		// codelet (true) or aborts the profile with its error (false).
		degrade := func() bool { return escalate && ctx.Err() == nil }

		in, inErrs := measure(machines, sim.ModeInApp)
		if err := inErrs[0]; err != nil {
			if !degrade() {
				return err
			}
			// The reference in-app time anchors everything derived for
			// this codelet (features, the model's matrix row,
			// screening); without it the codelet is screened out
			// entirely, and its targets' in-app results go unused.
			pr.RefFailed[i] = true
			pr.IllBehaved[i] = true
			pr.Discarded[i] = true
			pr.Features[i] = make([]float64, features.NumFeatures)
			return nil
		}
		refIn := in[0]
		pr.RefInApp[i] = refIn.Seconds
		pr.Discarded[i] = refIn.Counters.Cycles < MinMeasurableCycles

		st := maqao.Analyze(ps[i], cs[i], pr.Ref)
		pr.Features[i] = features.Assemble(ps[i], cs[i], refIn, st)

		// Standalone runs on the reference and on every target whose
		// in-app measurement succeeded; sa[k+1] is saTargets[k]'s.
		saMachines, saTargets := machines[:1:1], []int(nil)
		for t, err := range inErrs[1:] {
			switch {
			case err == nil:
				saMachines = append(saMachines, machines[t+1])
				saTargets = append(saTargets, t)
			case !degrade():
				return err
			default:
				pr.TargetFailed[t][i] = true
			}
		}
		sa, saErrs := measure(saMachines, sim.ModeStandalone)
		if err := saErrs[0]; err != nil {
			if !degrade() {
				return err
			}
			// Standalone extraction failed: mark ill-behaved so
			// represent.Select never picks this codelet, but keep the
			// in-app anchor and features.
			pr.RefFailed[i] = true
			pr.IllBehaved[i] = true
		} else {
			pr.RefStandalone[i] = sa[0].Seconds
			pr.IllBehaved[i] = extract.IllBehaved(sa[0].Seconds, refIn.Seconds)
		}

		for k, t := range saTargets {
			if err := saErrs[k+1]; err != nil {
				if !degrade() {
					return err
				}
				pr.TargetFailed[t][i] = true
				continue
			}
			pr.TargetInApp[t][i] = in[t+1].Seconds
			pr.TargetStandalone[t][i] = sa[k+1].Seconds
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pr.trimFailureMarkers()
	return pr, nil
}

// trimFailureMarkers drops all-false failure slices so a clean build —
// even one that ran under fault escalation — serializes identically to
// a fault-unaware one.
func (p *Profile) trimFailureMarkers() {
	if !slices.Contains(p.RefFailed, true) {
		p.RefFailed = nil
	}
	if !slices.ContainsFunc(p.TargetFailed, func(row []bool) bool { return slices.Contains(row, true) }) {
		p.TargetFailed = nil
	}
}

// N returns the codelet count.
func (p *Profile) N() int { return len(p.Codelets) }

// TargetIndex finds a target machine by name.
func (p *Profile) TargetIndex(name string) (int, error) {
	for t, m := range p.Targets {
		if m.Name == name {
			return t, nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown target %q", name)
}

// TargetIndices returns every target's index, in order: the target
// list of an evaluation over all targets.
func (p *Profile) TargetIndices() []int {
	ts := make([]int, len(p.Targets))
	for t := range ts {
		ts[t] = t
	}
	return ts
}

// SubProfile restricts the profile to the given codelet indices (used
// by the per-application subsetting experiment of Figure 8). The
// returned profile shares the underlying measurements.
func (p *Profile) SubProfile(indices []int) *Profile {
	sp := &Profile{Ref: p.Ref, Targets: p.Targets}
	for _, i := range indices {
		sp.Progs = append(sp.Progs, p.Progs[i])
		sp.Codelets = append(sp.Codelets, p.Codelets[i])
		sp.RefInApp = append(sp.RefInApp, p.RefInApp[i])
		sp.RefStandalone = append(sp.RefStandalone, p.RefStandalone[i])
		sp.IllBehaved = append(sp.IllBehaved, p.IllBehaved[i])
		sp.Discarded = append(sp.Discarded, p.Discarded[i])
		sp.Features = append(sp.Features, p.Features[i])
		if p.RefFailed != nil {
			sp.RefFailed = append(sp.RefFailed, p.RefFailed[i])
		}
	}
	for t := range p.Targets {
		in := make([]float64, 0, len(indices))
		sa := make([]float64, 0, len(indices))
		for _, i := range indices {
			in = append(in, p.TargetInApp[t][i])
			sa = append(sa, p.TargetStandalone[t][i])
		}
		sp.TargetInApp = append(sp.TargetInApp, in)
		sp.TargetStandalone = append(sp.TargetStandalone, sa)
		if p.TargetFailed != nil {
			fa := make([]bool, 0, len(indices))
			for _, i := range indices {
				fa = append(fa, p.TargetFailed[t][i])
			}
			sp.TargetFailed = append(sp.TargetFailed, fa)
		}
	}
	sp.trimFailureMarkers()
	return sp
}

// AppIndices groups codelet indices by application name.
func (p *Profile) AppIndices() map[string][]int {
	out := map[string][]int{}
	for i, prog := range p.Progs {
		out[prog.Name] = append(out[prog.Name], i)
	}
	return out
}

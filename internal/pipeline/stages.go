package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"fgbs/internal/arch"
	"fgbs/internal/cluster"
	"fgbs/internal/features"
	"fgbs/internal/ir"
	"fgbs/internal/stage"
)

// stages.go wires the per-step files into internal/stage's
// content-addressed graph. ResolveProfile resolves the expensive roots
// (Detect, Profile) through a stage.Store; the returned Staged view
// resolves the cheap derived stages (Normalize, Cluster, Represent,
// Predict) per request. Every staged method calls the same step
// functions as the monolithic Profile methods — NormalizedPoints,
// cluster.Build, finishSubset, Evaluate — so outputs are
// byte-identical; the only difference is that an artifact whose key
// already resolved is reused instead of recomputed. A K sweep
// therefore normalizes and clusters once and re-runs only the cut,
// selection and prediction per K.

// Stage versions, folded into every key (and, through upstream
// chaining, into every downstream key). Bump one when its stage's
// computation changes meaning: old artifacts become unreachable
// instead of silently wrong.
const (
	detectStageVersion    = 2
	profileStageVersion   = 2
	normalizeStageVersion = 1
	clusterStageVersion   = 1
	representStageVersion = 1
	predictStageVersion   = 1
)

// profileKey fingerprints Step B: the detected input plus everything
// that shapes measurements — seed, machines, and the measurer's
// identity. Workers is deliberately excluded: it changes scheduling,
// never results (the property parallel.go pins).
func profileKey(dk stage.Key, opts Options, measurerKey string) stage.Key {
	ref := opts.Reference
	if ref == nil {
		ref = arch.Reference()
	}
	targets := opts.Targets
	if targets == nil {
		targets = arch.Targets()
	}
	names := make([]string, len(targets))
	for i, m := range targets {
		names[i] = m.Name
	}
	return stage.NewKey("profile", profileStageVersion).
		Upstream(dk).
		Uint64(opts.Seed).
		Str(ref.Name).
		Strs(names).
		Str(measurerKey).
		Key()
}

// normalizeKey fingerprints Step C's first half: the profile plus the
// feature mask.
func normalizeKey(pk stage.Key, mask features.Mask) stage.Key {
	return stage.NewKey("normalize", normalizeStageVersion).
		Upstream(pk).
		Str(mask.String()).
		Key()
}

// clusterKey fingerprints the Ward dendrogram build over the
// normalized points. K is not an input — the dendrogram covers every
// cut.
func clusterKey(nk stage.Key) stage.Key {
	return stage.NewKey("cluster", clusterStageVersion).
		Upstream(nk).
		Key()
}

// representKey fingerprints Step D: the dendrogram plus the requested
// cut.
func representKey(ck stage.Key, k int) stage.Key {
	return stage.NewKey("represent", representStageVersion).
		Upstream(ck).
		Int(k).
		Key()
}

// predictKey fingerprints Step E: the subset plus the target index.
func predictKey(rk stage.Key, t int) stage.Key {
	return stage.NewKey("predict", predictStageVersion).
		Upstream(rk).
		Int(t).
		Key()
}

// StageOptions extends Options with the stage-graph inputs that plain
// profiling does not need.
type StageOptions struct {
	Options

	// MeasurerKey identifies the Measurer's configuration in the
	// profile key (e.g. fault.Profile.Fingerprint()). It is required
	// with a non-nil Measurer — ResolveProfile rejects an unkeyed
	// one, which would share the clean simulator's key — and left
	// empty with a nil Measurer.
	MeasurerKey string
}

// degradedBuilds numbers degraded builds process-wide: each gets a
// unique Staged key so its derived stages can never be served to a
// clean rebuild (or to another degraded build) of the same profile
// key, even when the two builds resolved through different callers
// sharing one store.
var degradedBuilds atomic.Int64

// errUnkeyedMeasurer rejects a Measurer without a MeasurerKey: its
// profiles would resolve under the clean simulator's key.
var errUnkeyedMeasurer = errors.New("pipeline: StageOptions.Measurer needs a MeasurerKey")

// detected is the detect stage's artifact.
type detected struct {
	ps []*ir.Program
	cs []*ir.Codelet
}

// profileCodec persists the profile stage in the binary profile layout
// (profileio.go); the byte tiers store it under its profile key, so
// differently-keyed runs stay separate. It decodes against the detect
// artifact the resolve already holds, so loading a profile never runs
// Detect again.
type profileCodec struct {
	det *detected
}

// ProfileCodec returns the profile stage's codec for the byte tiers,
// binding decoded profiles to ps and cs — Detect's aligned output for
// the suite, as in Profile.Progs and Profile.Codelets.
func ProfileCodec(ps []*ir.Program, cs []*ir.Codelet) stage.Codec {
	return profileCodec{det: &detected{ps: ps, cs: cs}}
}

func (c profileCodec) Encode(dst []byte, v any) ([]byte, error) {
	return v.(*Profile).AppendBinary(dst)
}

func (c profileCodec) Decode(data []byte) (any, error) {
	return decodeProfile(data, c.det.ps, c.det.cs)
}

// degradedBuild carries a degraded profile out of the profile
// compute as a failure, because the store keeps a failed compute
// nowhere: a degraded profile is served to the resolve and to every
// caller coalesced onto it, but neither memoized nor written to a byte
// tier, so the next resolve (a half-open recovery probe, say) retries
// the measurements instead of resurrecting the outage.
type degradedBuild struct {
	prof *Profile
}

func (e *degradedBuild) Error() string { return "pipeline: degraded profile build" }

// ResolveProfile resolves the Detect and Profile stages for progs
// through store, computing them only when no stored artifact matches.
// The profile persists through the store's byte tiers, when it has
// any; a degraded profile is returned but stored nowhere. The Outcome
// reports how the profile stage was satisfied (memory/coalesced/disk/
// peer vs computed). Any number of callers may share one store.
func ResolveProfile(ctx context.Context, store *stage.Store, progs []*ir.Program, opts StageOptions) (*Staged, stage.Outcome, error) {
	if opts.Measurer != nil && opts.MeasurerKey == "" {
		return nil, stage.Outcome{}, errUnkeyedMeasurer
	}
	dk := detectKey(progs)
	dV, _, err := store.Resolve(ctx, "detect", dk, nil, func(context.Context) (any, error) {
		ps, cs, err := Detect(progs)
		if err != nil {
			return nil, err
		}
		return &detected{ps: ps, cs: cs}, nil
	})
	if err != nil {
		return nil, stage.Outcome{}, err
	}
	det := dV.(*detected)

	pk := profileKey(dk, opts.Options, opts.MeasurerKey)
	// The profile compute consumes the detect artifact instead of
	// calling NewProfileContext, which would re-run Detect: Detect runs
	// exactly once per detect key, cold or warm.
	v, out, err := store.Resolve(ctx, "profile", pk, profileCodec{det: det}, func(ctx context.Context) (any, error) {
		prof, err := newProfileDetected(ctx, det.ps, det.cs, opts.Options)
		if err == nil && prof.Degraded() {
			return nil, &degradedBuild{prof: prof}
		}
		return prof, err
	})
	var db *degradedBuild
	if errors.As(err, &db) {
		v, err = db.prof, nil
	}
	if err != nil {
		return nil, out, err
	}
	prof := v.(*Profile)
	return &Staged{store: store, prof: prof, key: stagedKey(pk, prof)}, out, nil
}

// stagedKey derives the key the Staged view memoizes its derived
// stages under. A clean profile uses its profile key. A degraded
// profile gets a unique per-build key: derived artifacts computed from
// its zeroed features may be shared within the one Staged handle (a
// sweep over a degraded profile still reuses its own clustering) but
// must never be served to a later clean rebuild — or to a different
// degraded build — resolving under the same profile key.
func stagedKey(pk stage.Key, prof *Profile) stage.Key {
	if !prof.Degraded() {
		return pk
	}
	n := degradedBuilds.Add(1)
	return stage.NewKey("profile-degraded", profileStageVersion).Upstream(pk).Int(int(n)).Key()
}

// Adopt binds a profile built elsewhere — tests share one expensive
// build across fresh stores — to the key ResolveProfile would derive
// for the same inputs, so its derived stages resolve and memoize in
// store as if ResolveProfile had built it. The profile itself is
// stored nowhere: a later ResolveProfile builds or loads its own. The
// caller vouches that prof was built from progs under opts; a degraded
// profile gets an isolated key, as a degraded build does. Adopt panics
// on an unkeyed Measurer, which ResolveProfile rejects.
func Adopt(store *stage.Store, progs []*ir.Program, opts StageOptions, prof *Profile) *Staged {
	if opts.Measurer != nil && opts.MeasurerKey == "" {
		panic(errUnkeyedMeasurer)
	}
	pk := profileKey(detectKey(progs), opts.Options, opts.MeasurerKey)
	return &Staged{store: store, prof: prof, key: stagedKey(pk, prof)}
}

// Staged is a Profile bound to its stage key: the handle through which
// derived stages (Normalize → Cluster → Represent → Predict) resolve
// incrementally. Staged is immutable and safe for concurrent use, like
// the Profile it wraps.
type Staged struct {
	store *stage.Store
	prof  *Profile
	key   stage.Key
}

// Profile returns the underlying profile.
func (s *Staged) Profile() *Profile { return s.prof }

// Key returns the key the derived stages resolve under: the profile
// stage's content address for a clean profile, and a per-build key for
// a degraded one (see stagedKey).
func (s *Staged) Key() stage.Key { return s.key }

// Subset is Profile.Subset through the stage graph: Evaluate with no
// targets.
func (s *Staged) Subset(ctx context.Context, mask features.Mask, k int) (*Subset, error) {
	sub, _, err := s.Evaluate(ctx, mask, k, nil)
	return sub, err
}

// Evaluate is Profile.Subset followed by Profile.Evaluate on each of
// targets, through the stage graph: Normalize, Cluster and Represent
// resolve once, then Predict once per target. The evaluations come
// back in targets' order. The stage bodies are the monolith's at the
// default SubsetConfig (the ablations run on Profile.SubsetWith);
// cached artifacts are shared, which is safe because points,
// dendrograms, subsets and evaluations are never mutated after
// construction.
func (s *Staged) Evaluate(ctx context.Context, mask features.Mask, k int, targets []int) (*Subset, []*Eval, error) {
	nk := normalizeKey(s.key, mask)
	ptsV, _, err := s.store.Resolve(ctx, "normalize", nk, nil, func(context.Context) (any, error) {
		return s.prof.NormalizedPoints(mask), nil
	})
	if err != nil {
		return nil, nil, err
	}
	pts := ptsV.([][]float64)

	ck := clusterKey(nk)
	dV, _, err := s.store.Resolve(ctx, "cluster", ck, nil, func(context.Context) (any, error) {
		return cluster.Build(pts, cluster.Ward)
	})
	if err != nil {
		return nil, nil, err
	}
	d := dV.(*cluster.Dendrogram)

	rk := representKey(ck, k)
	subV, _, err := s.store.Resolve(ctx, "represent", rk, nil, func(context.Context) (any, error) {
		kk := k
		if kk <= 0 {
			kk = d.Elbow(pts, s.prof.maxElbowK(), 0)
		}
		return s.prof.finishSubset(mask, kk, d, pts, d.Cut(kk), SubsetConfig{})
	})
	if err != nil {
		return nil, nil, err
	}
	sub := subV.(*Subset)

	evals := make([]*Eval, len(targets))
	for i, t := range targets {
		evV, _, err := s.store.Resolve(ctx, "predict", predictKey(rk, t), nil, func(context.Context) (any, error) {
			return s.prof.Evaluate(sub, t)
		})
		if err != nil {
			return nil, nil, err
		}
		evals[i] = evV.(*Eval)
	}
	return sub, evals, nil
}

// sweepPoint mirrors Profile.sweepPoint, staged.
func (s *Staged) sweepPoint(ctx context.Context, mask features.Mask, k int) (SweepPoint, error) {
	sub, evals, err := s.Evaluate(ctx, mask, k, s.prof.TargetIndices())
	if err != nil {
		return SweepPoint{}, fmt.Errorf("pipeline: sweep k=%d: %w", k, err)
	}
	pt := SweepPoint{K: k, FinalK: sub.K()}
	pt.MedianError = make([]float64, 0, len(evals))
	pt.Reduction = make([]float64, 0, len(evals))
	for _, ev := range evals {
		pt.MedianError = append(pt.MedianError, ev.Summary.Median)
		pt.Reduction = append(pt.Reduction, ev.Reduction.Total)
	}
	return pt, nil
}

// SweepK is Profile.SweepKContext through the stage graph, with the K
// values fanned out over `workers` goroutines (<=1 means serial): the
// normalize and cluster stages resolve once (coalesced by the store
// across workers), each K re-runs only the cut, selection and
// prediction, and points merge back in K order. Output is identical to
// the serial monolithic sweep at any worker count.
func (s *Staged) SweepK(ctx context.Context, mask features.Mask, kMin, kMax, workers int, progress ProgressFunc) ([]SweepPoint, error) {
	var ks []int
	for k := kMin; k <= kMax && k <= s.prof.N(); k++ {
		ks = append(ks, k)
	}
	out := make([]SweepPoint, len(ks))
	err := runIndexed(ctx, len(ks), workers, progress, func(i int) error {
		pt, err := s.sweepPoint(ctx, mask, ks[i])
		if err != nil {
			return err
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RandomClusterings is Profile.RandomClusterings with cancellation,
// the guided side staged and the trials fanned out over `workers`
// goroutines (<=1 means serial). Trial i always runs with the same
// derived seed, so the envelope is identical to the serial run. The
// random trials stay unstaged: each partition is drawn from a
// per-trial seed and essentially never recurs, so caching them would
// only churn the LRU.
func (s *Staged) RandomClusterings(ctx context.Context, mask features.Mask, k, trials int, t int, seed uint64, workers int, progress ProgressFunc) (RandomClusteringStats, error) {
	_, evals, err := s.Evaluate(ctx, mask, k, []int{t})
	if err != nil {
		return RandomClusteringStats{}, err
	}
	res := RandomClusteringStats{K: k, Guided: evals[0].Summary.Median}
	seeds := trialSeeds(seed, trials)
	errs := make([]float64, trials)
	err = runIndexed(ctx, trials, workers, progress, func(i int) (err error) {
		errs[i], err = s.prof.randomTrial(mask, seeds[i], k, t)
		return err
	})
	if err != nil {
		return RandomClusteringStats{}, err
	}
	return finishRandomStats(res, errs), nil
}

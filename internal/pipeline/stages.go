package pipeline

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"fgbs/internal/arch"
	"fgbs/internal/cluster"
	"fgbs/internal/fault"
	"fgbs/internal/features"
	"fgbs/internal/ir"
	"fgbs/internal/stage"
)

// stages.go wires the per-step files into internal/stage's
// content-addressed graph. Engine.Profile resolves the expensive roots
// (Detect, Profile) through a stage.Store; the returned Staged view
// resolves the cheap derived stages (Normalize, Cluster, Represent,
// Predict) per request. Every staged method calls the same step
// functions as the monolithic Profile methods — points, cluster.Build,
// finishSubset, Evaluate — so outputs are byte-identical; the only
// difference is that an artifact whose key already resolved is reused
// instead of recomputed. A K sweep therefore normalizes and clusters
// once and re-runs only the cut, selection and prediction per K.

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
// feature mask and the A2 normalization switch.
func normalizeKey(pk stage.Key, mask features.Mask, cfg SubsetConfig) stage.Key {
	return stage.NewKey("normalize", normalizeStageVersion).
		Upstream(pk).
		Str(mask.String()).
		Bool(cfg.NoNormalize).
		Key()
}

// clusterKey fingerprints the dendrogram build: normalized points plus
// the linkage. K is not an input — the dendrogram covers every cut.
func clusterKey(nk stage.Key, cfg SubsetConfig) stage.Key {
	return stage.NewKey("cluster", clusterStageVersion).
		Upstream(nk).
		Int(int(cfg.Linkage)).
		Key()
}

// representKey fingerprints Step D: the dendrogram plus the requested
// cut and the A3/A5 ablation switches.
func representKey(ck stage.Key, k int, cfg SubsetConfig) stage.Key {
	return stage.NewKey("represent", representStageVersion).
		Upstream(ck).
		Int(k).
		Int(int(cfg.RepStrategy)).
		Bool(cfg.IgnoreScreening).
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
	// profile key (e.g. fault.Profile.Fingerprint()). Leave empty with
	// a nil Measurer. With a non-nil Measurer and an empty key, the
	// engine falls back to a per-Measurer-instance token, so distinct
	// anonymous measurers never collide with each other or with the
	// clean simulator — at the cost of no artifact sharing across
	// engine restarts.
	MeasurerKey string

	// DiskName, when non-empty and the engine's store has byte tiers,
	// persists the profile stage through them. The file is
	// key-qualified — "nr.prof" is written and read only as
	// "nr-<key prefix>.prof" — so resolves under different profile
	// keys (another seed, an injected fault profile) never share an
	// artifact. The bare name is never touched.
	DiskName string
}

// Engine runs the pipeline through a stage.Store.
type Engine struct {
	store *stage.Store

	mu sync.Mutex
	// anon assigns per-instance tokens to measurers without a
	// MeasurerKey; guarded by mu. Keyed by the Measurer itself — every
	// implementation in this codebase is a pointer or empty struct, so
	// interface comparison is safe.
	anon  map[fault.Measurer]string // guarded by mu
	anonN int                       // guarded by mu
	// degradedN numbers degraded builds: each gets a unique Staged key
	// so its derived stages can never be served to a clean rebuild (or
	// to another degraded build) of the same profile key.
	degradedN int // guarded by mu
}

// NewEngine wraps a store. Engines are cheap; everything lives in the
// store, so any number of engines may share one.
func NewEngine(store *stage.Store) *Engine {
	return &Engine{store: store, anon: make(map[fault.Measurer]string)}
}

// Store exposes the backing store (for stats and tests).
func (e *Engine) Store() *stage.Store { return e.store }

// measurerKey resolves StageOptions' measurer identity for key
// derivation.
func (e *Engine) measurerKey(opts StageOptions) string {
	if opts.MeasurerKey != "" || opts.Measurer == nil {
		return opts.MeasurerKey
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	k, ok := e.anon[opts.Measurer]
	if !ok {
		e.anonN++
		k = fmt.Sprintf("anon-measurer-%d", e.anonN)
		e.anon[opts.Measurer] = k
	}
	return k
}

// detected is the detect stage's artifact.
type detected struct {
	ps []*ir.Program
	cs []*ir.Codelet
}

// profileCodec persists the profile stage in the binary profile layout
// (profileio.go) under a key-qualified filename, so differently-keyed
// runs stay separate. It decodes against the detect artifact the
// resolve already holds, so loading a profile never runs Detect again.
type profileCodec struct {
	name string // key-qualified filename (diskFilename)
	det  *detected
}

// ProfileCodec returns the profile stage's codec for the byte tiers,
// storing under filename and binding decoded profiles to ps and cs —
// Detect's aligned output for the suite, as in Profile.Progs and
// Profile.Codelets.
func ProfileCodec(filename string, ps []*ir.Program, cs []*ir.Codelet) stage.Codec {
	return profileCodec{name: filename, det: &detected{ps: ps, cs: cs}}
}

func (c profileCodec) Filename() string { return c.name }

func (c profileCodec) Encode(dst []byte, v any) ([]byte, error) {
	return v.(*Profile).AppendBinary(dst)
}

func (c profileCodec) Decode(data []byte) (any, error) {
	return decodeProfile(data, c.det.ps, c.det.cs)
}

// Persist keeps degraded profiles off disk: a restart should retry the
// failed measurements, not resurrect the outage.
func (c profileCodec) Persist(v any) bool {
	return !v.(*Profile).Degraded()
}

// diskFilename qualifies a profile stage filename with its key so
// differently-keyed resolves (another seed, an injected fault profile)
// never share a disk artifact: "nr.prof" → "nr-<key prefix>.prof".
func diskFilename(name string, k stage.Key) string {
	ext := filepath.Ext(name)
	base := strings.TrimSuffix(name, ext)
	h := string(k)
	if len(h) > 12 {
		h = h[:12]
	}
	return base + "-" + h + ext
}

// Profile resolves the Detect and Profile stages for progs, computing
// them only when no stored artifact matches. The Outcome reports how
// the profile stage was satisfied (memory/coalesced/disk vs computed).
func (e *Engine) Profile(ctx context.Context, progs []*ir.Program, opts StageOptions) (*Staged, stage.Outcome, error) {
	dk := detectKey(progs)
	dV, _, err := e.store.Resolve(ctx, "detect", dk, nil, func(context.Context) (any, error) {
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

	pk := profileKey(dk, opts.Options, e.measurerKey(opts))
	var codec stage.Codec
	if opts.DiskName != "" {
		codec = profileCodec{name: diskFilename(opts.DiskName, pk), det: det}
	}
	// The profile compute consumes the detect artifact instead of
	// calling NewProfileContext, which would re-run Detect: Detect runs
	// exactly once per detect key, cold or warm.
	v, out, err := e.store.Resolve(ctx, "profile", pk, codec, func(ctx context.Context) (any, error) {
		return newProfileDetected(ctx, det.ps, det.cs, opts.Options)
	})
	if err != nil {
		return nil, out, err
	}
	prof := v.(*Profile)
	if prof.Degraded() {
		// A degraded profile is served but never memoized — the memory
		// analogue of profileCodec.Persist: the next resolve (a
		// half-open recovery probe, say) must retry the measurements,
		// not resurrect the outage from the LRU.
		e.store.Delete(pk)
	}
	return &Staged{eng: e, prof: prof, key: e.stagedKey(pk, prof)}, out, nil
}

// stagedKey derives the key the Staged view memoizes its derived
// stages under. A clean profile uses its profile key. A degraded
// profile gets a unique per-build key: derived artifacts computed from
// its zeroed features may be shared within the one Staged handle (a
// sweep over a degraded profile still reuses its own clustering) but
// must never be served to a later clean rebuild — or to a different
// degraded build — resolving under the same profile key.
func (e *Engine) stagedKey(pk stage.Key, prof *Profile) stage.Key {
	if !prof.Degraded() {
		return pk
	}
	e.mu.Lock()
	e.degradedN++
	n := e.degradedN
	e.mu.Unlock()
	return stage.NewKey("profile-degraded", profileStageVersion).Upstream(pk).Int(n).Key()
}

// Adopt inserts an externally built profile (e.g. loaded from a CLI
// -cache file) into the stage graph under the key Engine.Profile would
// derive for the same inputs, replacing any stored artifact. The
// adopted profile is trusted as-is, matching the CLI's historical
// cache semantics — except a degraded profile, which (like a degraded
// build) is served but never memoized, under an isolated key.
func (e *Engine) Adopt(progs []*ir.Program, opts StageOptions, prof *Profile) *Staged {
	pk := profileKey(detectKey(progs), opts.Options, e.measurerKey(opts))
	if !prof.Degraded() {
		e.store.Put(pk, prof)
	}
	return &Staged{eng: e, prof: prof, key: e.stagedKey(pk, prof)}
}

// Staged is a Profile bound to its stage key: the handle through which
// derived stages (Normalize → Cluster → Represent → Predict) resolve
// incrementally. Staged is immutable and safe for concurrent use, like
// the Profile it wraps.
type Staged struct {
	eng  *Engine
	prof *Profile
	key  stage.Key
}

// Profile returns the underlying profile.
func (s *Staged) Profile() *Profile { return s.prof }

// Key returns the profile stage's content address.
func (s *Staged) Key() stage.Key { return s.key }

// Subset is Profile.Subset through the stage graph.
func (s *Staged) Subset(ctx context.Context, mask features.Mask, k int) (*Subset, error) {
	sub, _, err := s.subsetWithKey(ctx, mask, k, SubsetConfig{})
	return sub, err
}

// SubsetWith is Profile.SubsetWith through the stage graph.
func (s *Staged) SubsetWith(ctx context.Context, mask features.Mask, k int, cfg SubsetConfig) (*Subset, error) {
	sub, _, err := s.subsetWithKey(ctx, mask, k, cfg)
	return sub, err
}

// subsetWithKey resolves Normalize, Cluster and Represent, returning
// the subset and its represent-stage key (the upstream of Predict).
// The bodies replicate Profile.SubsetWith stage by stage; cached
// artifacts are shared, which is safe because points/dendrograms/
// subsets are never mutated after construction.
func (s *Staged) subsetWithKey(ctx context.Context, mask features.Mask, k int, cfg SubsetConfig) (*Subset, stage.Key, error) {
	nk := normalizeKey(s.key, mask, cfg)
	ptsV, _, err := s.eng.store.Resolve(ctx, "normalize", nk, nil, func(context.Context) (any, error) {
		return s.prof.points(mask, cfg), nil
	})
	if err != nil {
		return nil, "", err
	}
	pts := ptsV.([][]float64)

	ck := clusterKey(nk, cfg)
	dV, _, err := s.eng.store.Resolve(ctx, "cluster", ck, nil, func(context.Context) (any, error) {
		return cluster.Build(pts, cfg.Linkage)
	})
	if err != nil {
		return nil, "", err
	}
	d := dV.(*cluster.Dendrogram)

	rk := representKey(ck, k, cfg)
	subV, _, err := s.eng.store.Resolve(ctx, "represent", rk, nil, func(context.Context) (any, error) {
		kk := k
		if kk <= 0 {
			kk = d.Elbow(pts, s.prof.maxElbowK(), 0)
		}
		labels := d.Cut(kk)
		return s.prof.finishSubset(mask, kk, d, pts, labels, cfg)
	})
	if err != nil {
		return nil, "", err
	}
	return subV.(*Subset), rk, nil
}

// Evaluate is Subset-then-Profile.Evaluate through the stage graph,
// returning both the subset and the target's evaluation.
func (s *Staged) Evaluate(ctx context.Context, mask features.Mask, k int, t int) (*Subset, *Eval, error) {
	return s.evaluateWith(ctx, mask, k, SubsetConfig{}, t)
}

func (s *Staged) evaluateWith(ctx context.Context, mask features.Mask, k int, cfg SubsetConfig, t int) (*Subset, *Eval, error) {
	sub, rk, err := s.subsetWithKey(ctx, mask, k, cfg)
	if err != nil {
		return nil, nil, err
	}
	evV, _, err := s.eng.store.Resolve(ctx, "predict", predictKey(rk, t), nil, func(context.Context) (any, error) {
		return s.prof.Evaluate(sub, t)
	})
	if err != nil {
		return nil, nil, err
	}
	return sub, evV.(*Eval), nil
}

// sweepPoint mirrors Profile.sweepPoint, staged.
func (s *Staged) sweepPoint(ctx context.Context, mask features.Mask, k int) (SweepPoint, error) {
	sub, rk, err := s.subsetWithKey(ctx, mask, k, SubsetConfig{})
	if err != nil {
		return SweepPoint{}, fmt.Errorf("pipeline: sweep k=%d: %w", k, err)
	}
	pt := SweepPoint{K: k, FinalK: sub.K()}
	for t := range s.prof.Targets {
		evV, _, err := s.eng.store.Resolve(ctx, "predict", predictKey(rk, t), nil, func(context.Context) (any, error) {
			return s.prof.Evaluate(sub, t)
		})
		if err != nil {
			return SweepPoint{}, err
		}
		ev := evV.(*Eval)
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

// RandomClusterings is Profile.RandomClusteringsContext with the
// guided side staged and the trials fanned out in chunks over
// `workers` goroutines (<=1 means serial). Trial i always runs with
// the same derived seed, so the envelope is identical to the serial
// run. The random trials stay unstaged: each partition is drawn from a
// per-trial seed and essentially never recurs, so caching them would
// only churn the LRU.
func (s *Staged) RandomClusterings(ctx context.Context, mask features.Mask, k, trials int, t int, seed uint64, workers int, progress ProgressFunc) (RandomClusteringStats, error) {
	_, ev, err := s.Evaluate(ctx, mask, k, t)
	if err != nil {
		return RandomClusteringStats{}, err
	}
	res := RandomClusteringStats{K: k, Guided: ev.Summary.Median}
	seeds := trialSeeds(seed, trials)
	errs := make([]float64, trials)
	runErr := runChunked(ctx, trials, workers, progress, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			e, err := s.prof.randomTrial(mask, seeds[i], k, t)
			if err != nil {
				return err
			}
			errs[i] = e
		}
		return nil
	})
	if runErr != nil {
		return RandomClusteringStats{}, runErr
	}
	return finishRandomStats(res, errs), nil
}

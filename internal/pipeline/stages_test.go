package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/cluster"
	"fgbs/internal/fault"
	"fgbs/internal/features"
	"fgbs/internal/ir"
	"fgbs/internal/sim"
	"fgbs/internal/stage"
)

// stageInputs is one full set of key-derivation inputs.
type stageInputs struct {
	progs       []*ir.Program
	opts        Options
	measurerKey string
	mask        features.Mask
	cfg         SubsetConfig
	k           int
	target      int
}

func baseInputs() stageInputs {
	return stageInputs{
		progs:  tinySuite(),
		opts:   Options{Seed: 1},
		mask:   tinyMask,
		k:      3,
		target: 0,
	}
}

// stageOrder is the DAG in topological order.
var stageOrder = []string{"detect", "profile", "normalize", "cluster", "represent", "predict"}

// allKeys derives every stage key for one input set, chaining upstream
// keys exactly as the engine does.
func allKeys(in stageInputs) map[string]stage.Key {
	dk := detectKey(in.progs)
	pk := profileKey(dk, in.opts, in.measurerKey)
	nk := normalizeKey(pk, in.mask, in.cfg)
	ck := clusterKey(nk, in.cfg)
	rk := representKey(ck, in.k, in.cfg)
	return map[string]stage.Key{
		"detect":    dk,
		"profile":   pk,
		"normalize": nk,
		"cluster":   ck,
		"represent": rk,
		"predict":   predictKey(rk, in.target),
	}
}

// TestStageKeyInvalidation pins the invalidation frontier: each input
// change must invalidate exactly the stage it feeds and everything
// downstream of it — never anything upstream, so cached upstream
// artifacts keep hitting.
func TestStageKeyInvalidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*stageInputs)
		// from is the first (most upstream) stage whose key must
		// change; "" means no key changes at all.
		from string
		// prep, when set, edits both sides before mut: the case then
		// compares prep'd inputs with and without mut.
		prep func(*stageInputs)
	}{
		{name: "program source", mut: func(in *stageInputs) {
			in.progs[0].Codelets[0].Invocations++
		}, from: "detect"},
		{name: "uncovered fraction", mut: func(in *stageInputs) {
			in.progs[0].UncoveredFraction = 0.25
		}, from: "detect"},
		// The two below simulate differently but rendered the same
		// pseudo-source, so a source-text key let them share artifacts.
		{name: "int init kind", mut: func(in *stageInputs) {
			in.progs[0].Array("idx").Init.Kind = ir.IntInitMod
		}, from: "detect"},
		{name: "dataset variation", prep: func(in *stageInputs) {
			c := in.progs[0].Codelets[0]
			c.DatasetVariation, c.VaryParam = 0.349, "n"
		}, mut: func(in *stageInputs) {
			in.progs[0].Codelets[0].DatasetVariation = 0.351
		}, from: "detect"},
		{name: "seed", mut: func(in *stageInputs) { in.opts.Seed = 2 }, from: "profile"},
		{name: "targets", mut: func(in *stageInputs) {
			in.opts.Targets = arch.Targets()[:2]
		}, from: "profile"},
		{name: "measurer key", mut: func(in *stageInputs) {
			in.measurerKey = "fault:deadbeef"
		}, from: "profile"},
		{name: "workers is excluded", mut: func(in *stageInputs) {
			in.opts.Workers = 7
		}, from: ""},
		{name: "feature mask", mut: func(in *stageInputs) {
			in.mask = features.AllMask()
		}, from: "normalize"},
		{name: "no-normalize ablation", mut: func(in *stageInputs) {
			in.cfg.NoNormalize = true
		}, from: "normalize"},
		{name: "linkage", mut: func(in *stageInputs) {
			in.cfg.Linkage = cluster.Complete
		}, from: "cluster"},
		{name: "cluster count", mut: func(in *stageInputs) { in.k = 4 }, from: "represent"},
		{name: "rep strategy ablation", mut: func(in *stageInputs) {
			in.cfg.RepStrategy = RepFirst
		}, from: "represent"},
		{name: "screening ablation", mut: func(in *stageInputs) {
			in.cfg.IgnoreScreening = true
		}, from: "represent"},
		{name: "target index", mut: func(in *stageInputs) { in.target = 1 }, from: "predict"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := baseInputs()
			if tc.prep != nil {
				tc.prep(&in)
			}
			base := allKeys(in)
			tc.mut(&in)
			got := allKeys(in)
			invalidated := false
			for _, s := range stageOrder {
				invalidated = invalidated || s == tc.from
				if invalidated && got[s] == base[s] {
					t.Errorf("stage %s not invalidated", s)
				}
				if !invalidated && got[s] != base[s] {
					t.Errorf("stage %s invalidated upstream of %s", s, tc.from)
				}
			}
		})
	}
}

// stagedFixture wraps the shared tiny profile in a fresh engine.
func stagedFixture(t *testing.T) *Staged {
	t.Helper()
	eng := NewEngine(stage.NewStore(128, ""))
	return eng.Adopt(tinySuite(), StageOptions{Options: Options{Seed: 1}}, tinyProfile(t))
}

func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStagedMatchesMonolith is the golden regression: every staged
// entry point must be byte-identical to its monolithic counterpart.
// Subset carries an unexported prediction model, so subsets are
// compared through their exported Selection and through the Eval they
// produce, not by marshaling the Subset itself.
func TestStagedMatchesMonolith(t *testing.T) {
	prof := tinyProfile(t)
	st := stagedFixture(t)
	ctx := context.Background()

	for _, k := range []int{0, 2, 3, 5} {
		monoSub, err := prof.Subset(tinyMask, k)
		if err != nil {
			t.Fatal(err)
		}
		stagedSub, err := st.Subset(ctx, tinyMask, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(monoSub.Selection, stagedSub.Selection) {
			t.Errorf("k=%d: staged Selection = %+v, monolith %+v", k, stagedSub.Selection, monoSub.Selection)
		}
		if monoSub.RequestedK != stagedSub.RequestedK {
			t.Errorf("k=%d: RequestedK %d vs %d", k, stagedSub.RequestedK, monoSub.RequestedK)
		}
		for tt := range prof.Targets {
			monoEv, err := prof.Evaluate(monoSub, tt)
			if err != nil {
				t.Fatal(err)
			}
			_, stagedEv, err := st.Evaluate(ctx, tinyMask, k, tt)
			if err != nil {
				t.Fatal(err)
			}
			if m, s := asJSON(t, monoEv), asJSON(t, stagedEv); !bytes.Equal(m, s) {
				t.Errorf("k=%d target %d: staged Eval diverges\nmonolith: %s\nstaged:   %s", k, tt, m, s)
			}
		}
	}

	cfg := SubsetConfig{Linkage: cluster.Average, NoNormalize: true, RepStrategy: RepFirst, IgnoreScreening: true}
	monoSub, err := prof.SubsetWith(tinyMask, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stagedSub, err := st.SubsetWith(ctx, tinyMask, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(monoSub.Selection, stagedSub.Selection) {
		t.Errorf("ablation config: staged Selection = %+v, monolith %+v", stagedSub.Selection, monoSub.Selection)
	}

	mono, err := prof.SweepK(tinyMask, 2, prof.N())
	if err != nil {
		t.Fatal(err)
	}
	staged, err := st.SweepK(ctx, tinyMask, 2, prof.N(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, s := asJSON(t, mono), asJSON(t, staged); !bytes.Equal(m, s) {
		t.Errorf("staged SweepK diverges\nmonolith: %s\nstaged:   %s", m, s)
	}
	par, err := st.SweepK(ctx, tinyMask, 2, prof.N(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m, s := asJSON(t, mono), asJSON(t, par); !bytes.Equal(m, s) {
		t.Errorf("staged SweepK with 4 workers diverges from serial monolith")
	}

	monoRand, err := prof.RandomClusterings(tinyMask, 3, 20, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	stagedRand, err := st.RandomClusterings(ctx, tinyMask, 3, 20, 0, 42, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(monoRand, stagedRand) {
		t.Errorf("staged RandomClusterings = %+v, monolith %+v", stagedRand, monoRand)
	}
}

// countingMeasurer is the clean simulator with an invocation counter:
// the probe for "did profiling actually re-measure?".
type countingMeasurer struct {
	n atomic.Int64
}

func (m *countingMeasurer) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error) {
	m.n.Add(1)
	return fault.Sim{}.Measure(ctx, p, c, opts)
}

// TestSweepKProfilesExactlyOnce is the issue's acceptance criterion: a
// K sweep over 8 cut values through the staged pipeline must run the
// Detect and Profile stages exactly once, with every simulator
// invocation happening during that single profiling run.
func TestSweepKProfilesExactlyOnce(t *testing.T) {
	cm := &countingMeasurer{}
	eng := NewEngine(stage.NewStore(256, ""))
	opts := StageOptions{Options: Options{Seed: 1, Measurer: cm}, MeasurerKey: "counting"}
	ctx := context.Background()

	st, out, err := eng.Profile(ctx, tinySuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("first profile reported cached")
	}
	profiled := cm.n.Load()
	if profiled == 0 {
		t.Fatal("profiling ran no measurements")
	}

	pts, err := st.SweepK(ctx, tinyMask, 1, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("sweep returned %d points, want 8", len(pts))
	}
	if n := cm.n.Load(); n != profiled {
		t.Errorf("sweep ran %d extra measurements, want 0", n-profiled)
	}

	// A second resolve with identical options reuses the profile too.
	st2, out, err := eng.Profile(ctx, tinySuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("second profile resolve not served from cache")
	}
	if st2.Profile() != st.Profile() {
		t.Error("second resolve returned a different profile instance")
	}
	if n := cm.n.Load(); n != profiled {
		t.Errorf("second resolve ran %d extra measurements", n-profiled)
	}
	stats := eng.Store().Stats()
	for _, s := range []string{"detect", "profile"} {
		if m := stats.Stages[s].Misses; m != 1 {
			t.Errorf("stage %s ran %d times, want 1", s, m)
		}
	}
}

// TestEngineProfileMatchesMonolith pins that an engine-built profile —
// which consumes the memoized detect artifact instead of re-detecting —
// serializes byte-identically to the monolithic NewProfile.
func TestEngineProfileMatchesMonolith(t *testing.T) {
	mono := tinyProfile(t)
	eng := NewEngine(stage.NewStore(16, ""))
	st, _, err := eng.Profile(context.Background(), tinySuite(), StageOptions{Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := mono.SaveJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := st.Profile().SaveJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("engine-built profile diverges from monolithic NewProfile")
	}
}

// flakyMeasurer breaks every measurement of one codelet until healed —
// the smallest fixture that produces a degraded profile and then a
// clean rebuild under identical stage options.
type flakyMeasurer struct {
	broken string
	healed atomic.Bool
}

func (m *flakyMeasurer) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error) {
	if !m.healed.Load() && c.Name == m.broken {
		return nil, errInjectedFault
	}
	return fault.Sim{}.Measure(ctx, p, c, opts)
}

var errInjectedFault = errors.New("injected permanent fault")

// TestDegradedProfileDoesNotPoisonRebuild pins the recovery guarantee:
// derived stages computed from a degraded profile (zeroed features,
// screened codelets) must never be served to a clean rebuild resolving
// under the same profile key.
func TestDegradedProfileDoesNotPoisonRebuild(t *testing.T) {
	fm := &flakyMeasurer{broken: "beta_gather"}
	eng := NewEngine(stage.NewStore(256, ""))
	opts := StageOptions{Options: Options{Seed: 1, Measurer: fm}, MeasurerKey: "flaky"}
	ctx := context.Background()

	bad, _, err := eng.Profile(ctx, tinySuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bad.Profile().Degraded() {
		t.Fatal("fixture did not produce a degraded profile")
	}
	// Warm every derived stage from the degraded profile, exactly what
	// a server answering requests during the outage would do.
	for tt := range bad.Profile().Targets {
		if _, _, err := bad.Evaluate(ctx, tinyMask, 3, tt); err != nil {
			t.Fatal(err)
		}
	}

	fm.healed.Store(true)
	good, out, err := eng.Profile(ctx, tinySuite(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("degraded profile was memoized: rebuild served from cache")
	}
	if good.Profile().Degraded() {
		t.Fatal("healed rebuild still degraded")
	}
	if good.Key() == bad.Key() {
		t.Error("degraded and clean Staged handles share a stage key")
	}

	// Every staged answer from the clean rebuild must match the clean
	// monolith — not the degraded run's cached artifacts.
	for tt := range good.Profile().Targets {
		sub, gotEv, err := good.Evaluate(ctx, tinyMask, 3, tt)
		if err != nil {
			t.Fatal(err)
		}
		monoSub, err := good.Profile().Subset(tinyMask, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(monoSub.Selection, sub.Selection) {
			t.Errorf("target %d: clean rebuild served the degraded run's subset", tt)
		}
		wantEv, err := good.Profile().Evaluate(monoSub, tt)
		if err != nil {
			t.Fatal(err)
		}
		if m, s := asJSON(t, wantEv), asJSON(t, gotEv); !bytes.Equal(m, s) {
			t.Errorf("target %d: clean rebuild served a degraded evaluation\nwant: %s\ngot:  %s", tt, m, s)
		}
	}
}

// TestDiskArtifactsKeyedByOptions pins the disk-layer isolation
// contract: profiles persist under key-qualified filenames, so
// fault-injected and clean runs (or runs with different seeds) sharing
// one directory never adopt each other's artifacts, and fresh artifacts
// are written only under the keyed name, never the bare <suite>.prof.
func TestDiskArtifactsKeyedByOptions(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cleanOpts := StageOptions{Options: Options{Seed: 1}, DiskName: "tiny.prof"}

	if _, _, err := NewEngine(stage.NewStore(8, dir)).Profile(ctx, tinySuite(), cleanOpts); err != nil {
		t.Fatal(err)
	}
	keyed, err := filepath.Glob(filepath.Join(dir, "tiny-*.prof"))
	if err != nil || len(keyed) != 1 {
		t.Fatalf("keyed files = %v (err %v), want exactly one", keyed, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tiny.prof")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("bare name was written (stat err %v)", err)
	}

	// Same options, fresh process: the keyed artifact satisfies the
	// miss from disk.
	if _, out, err := NewEngine(stage.NewStore(8, dir)).Profile(ctx, tinySuite(), cleanOpts); err != nil || out.Tier != stage.TierDisk {
		t.Fatalf("warm clean resolve: out=%+v err=%v, want disk hit", out, err)
	}

	// A fault-keyed resolve over the same directory must re-measure,
	// not adopt the clean artifact.
	cm := &countingMeasurer{}
	faultOpts := StageOptions{Options: Options{Seed: 1, Measurer: cm}, MeasurerKey: "fault:deadbeef", DiskName: "tiny.prof"}
	if _, out, err := NewEngine(stage.NewStore(8, dir)).Profile(ctx, tinySuite(), faultOpts); err != nil {
		t.Fatal(err)
	} else if out.Tier != "" {
		t.Error("fault-keyed resolve adopted a clean disk artifact")
	}
	if cm.n.Load() == 0 {
		t.Error("fault-keyed resolve ran no measurements")
	}

	// A different seed must re-measure too.
	if _, out, err := NewEngine(stage.NewStore(8, dir)).Profile(ctx, tinySuite(), StageOptions{Options: Options{Seed: 2}, DiskName: "tiny.prof"}); err != nil {
		t.Fatal(err)
	} else if out.Tier != "" {
		t.Error("different-seed resolve adopted another seed's artifact")
	}
}

// TestStagedConcurrentResolve hammers one Staged from many goroutines
// under -race: concurrent sweeps and evaluations must coalesce on the
// shared stages and agree on every result.
func TestStagedConcurrentResolve(t *testing.T) {
	prof := tinyProfile(t)
	st := stagedFixture(t)
	ctx := context.Background()
	want, err := prof.SweepK(tinyMask, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := asJSON(t, want)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := st.SweepK(ctx, tinyMask, 2, 6, 1, nil)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(asJSON(t, got), wantJSON) {
				t.Error("concurrent sweep diverged")
			}
		}()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := st.Evaluate(ctx, tinyMask, 2+i%5, i%len(prof.Targets))
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkSweepKWarm measures the incremental win and self-asserts
// it: a warm sweep must serve shared stages from the store (more than
// one hit) and must not re-run the simulator at all, so the warm
// invocation count stays strictly below a cold run's. ci.sh runs this
// with -benchtime=1x as the stage-cache smoke gate.
func BenchmarkSweepKWarm(b *testing.B) {
	ctx := context.Background()
	cold := &countingMeasurer{}
	coldEng := NewEngine(stage.NewStore(256, ""))
	coldSt, _, err := coldEng.Profile(ctx, tinySuite(), StageOptions{Options: Options{Seed: 1, Measurer: cold}, MeasurerKey: "counting"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := coldSt.SweepK(ctx, tinyMask, 1, 8, 1, nil); err != nil {
		b.Fatal(err)
	}
	coldInv := cold.n.Load()

	warm := &countingMeasurer{}
	eng := NewEngine(stage.NewStore(256, ""))
	opts := StageOptions{Options: Options{Seed: 1, Measurer: warm}, MeasurerKey: "counting"}
	if _, _, err := eng.Profile(ctx, tinySuite(), opts); err != nil {
		b.Fatal(err)
	}
	base := eng.Store().Stats()
	warmBefore := warm.n.Load()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, err := eng.Profile(ctx, tinySuite(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.SweepK(ctx, tinyMask, 1, 8, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	warmInv := warm.n.Load() - warmBefore
	hits := eng.Store().Stats().Total.Hits - base.Total.Hits
	if hits <= 1 {
		b.Fatalf("warm sweep hit the stage cache %d times, want > 1", hits)
	}
	if warmInv >= coldInv {
		b.Fatalf("warm sweep ran %d simulator invocations, cold ran %d — want strictly fewer", warmInv, coldInv)
	}
	b.ReportMetric(float64(hits)/float64(b.N), "stagehits/op")
}

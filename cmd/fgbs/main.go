// Command fgbs runs the benchmark-subsetting pipeline and regenerates
// the paper's tables and figures.
//
// Usage:
//
//	fgbs <experiment> [flags]
//
// Experiments (see DESIGN.md's per-experiment index):
//
//	t1        Table 1  — test architectures
//	t2        Table 2  — GA feature selection on NR
//	t3        Table 3  — NR clustering with per-codelet detail
//	t4        Table 4  — NR prediction errors at K=14 and the elbow K
//	t5        Table 5  — reduction factor breakdown (NAS)
//	f2        Figure 2 — per-codelet prediction for two NR clusters
//	f3        Figure 3 — error/reduction trade-off sweep (NAS)
//	f4        Figure 4 — per-codelet prediction on a target (NAS)
//	f5        Figure 5 — application-level prediction (NAS)
//	f6        Figure 6 — geometric mean speedups (NAS)
//	f7        Figure 7 — guided vs random clusterings (NAS)
//	f8        Figure 8 — cross-application vs per-application subsetting
//	summary   headline numbers in one screen
//	clusters  cluster memberships at the elbow K
//	dendro    Ward dendrogram merge history
//	show      pseudo-source of a codelet (-codelet name)
//	export    data series: -what eval|sweep|features (CSV) or
//	          evaljson|subsetjson|select (the JSON forms the fgbsd
//	          service also returns)
//	corpus    synthetic-suite generator (internal/corpus): with no
//	          flags, list the codelet families, their axes and the
//	          registered synthetic suites; with -family name -n N,
//	          materialize N standalone codelets of that family under
//	          -seed; with a synthetic -suite (syn-*), materialize the
//	          registered suite. Output is the canonical corpus dump —
//	          byte-identical for a given seed at every -j — to stdout
//	          or -out
//	bench     run the internal/bench spec registry — the repository's
//	          performance trajectory (see the README's "Performance
//	          trajectory" section). Writes a human table by default,
//	          machine JSON with -json, and with -compare diffs the run
//	          against a committed BENCH_<n>.json baseline, exiting
//	          nonzero on regressions beyond -tolerance
//
// Flags:
//
//	-suite name     suite to analyze: nas, nr, poly, joint, or a
//	                registered synthetic suite (syn-smoke, syn-mix-240,
//	                syn-apps-96, syn-mix-960) materialized on demand by
//	                internal/corpus (default nas)
//	-family name    corpus: codelet family to generate (run 'fgbs
//	                corpus' with no flags for the catalog)
//	-n N            corpus: how many codelets to generate (default 100)
//	-target name    target machine for f2/f4/f7 (default depends)
//	-k N            cluster count (0 = elbow)
//	-seed N         experiment seed (default 1)
//	-trials N       random clusterings per K for f7 (default 1000)
//	-full           full-size GA for t2 (population 1000 x 100
//	                generations, as in the paper; slow)
//	-paperfeatures  use the exact Table 2 feature set instead of the
//	                default mask
//	-codelet name   codelet for the show experiment
//	-what kind      export kind: eval, sweep, features, evaljson,
//	                subsetjson or select
//	-j N            parallel workers for the f3/f7 sweeps and the
//	                sweep export (0 = GOMAXPROCS, 1 = serial); the
//	                output is identical at every worker count
//	-stagecache N   in-memory stage artifact cache size (entries,
//	                default 256). Experiments resolve the pipeline
//	                through a content-addressed stage graph, so
//	                repeated work within one run (a K sweep's shared
//	                clustering, say) is computed once.
//	-stagedir path  also persist stage artifacts (the profile) under
//	                this directory and load them back on later runs
//	                (profiling is the expensive step — persist it once,
//	                then every experiment on the same suite, seed and
//	                -faultprofile is instant). Files are framed
//	                <key>.art, named by the artifact's full content
//	                address — the layout fgbsd's -profiledir shares
//	-peers list     comma-separated base URLs of fgbsd daemons; adds a
//	                peer tier to the stage store, after the -stagedir
//	                disk tier, that fetches artifacts from their
//	                /v1/artifacts/{key} endpoints before recomputing,
//	                so a CLI run can reuse a daemon's already-built
//	                profile
//	-faultprofile p JSON fault-injection profile applied to every
//	                measurement, with the robust retry/outlier-rejection
//	                protocol mounted on top (chaos testing; see the
//	                README's "Chaos testing" section). Validated before
//	                any profiling starts.
//	-spec pattern   bench: run only specs matching this regexp
//	-reps N         bench: timed repetitions per spec (0 = default)
//	-warmup N       bench: untimed warmup repetitions per spec
//	                (-1 = default, 0 = none)
//	-quick          bench: CI-gate settings — fewer repetitions, same
//	                workloads, so medians stay comparable to a full run
//	-json           bench: write the machine-readable run to stdout
//	-out path       bench: also write the JSON run to path (the form
//	                committed as BENCH_<n>.json); corpus: write the
//	                dump to path instead of stdout
//	-compare path   bench: diff this run against the baseline at path
//	                and exit nonzero on regression
//	-tolerance pct  bench: regression threshold in percent for -compare
//	                (default 20)
//
// SIGINT/SIGTERM cancel the running experiment: long sweeps and GA
// runs abort at the next unit of work instead of ignoring Ctrl-C.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"

	"fgbs/internal/arch"
	"fgbs/internal/corpus"
	"fgbs/internal/fault"
	"fgbs/internal/features"
	"fgbs/internal/ga"
	"fgbs/internal/measure"
	"fgbs/internal/pipeline"
	"fgbs/internal/report"
	"fgbs/internal/stage"
	"fgbs/internal/suites"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fgbs:", err)
		os.Exit(1)
	}
}

type config struct {
	suite      string
	target     string
	k          int
	seed       uint64
	trials     int
	full       bool
	paperSet   bool
	codelet    string
	what       string
	family     string
	n          int
	jobs       int
	faultPath  string
	stageCache int
	stageDir   string
	peers      string
	// bench-only flags (the bench experiment shares the flag set).
	benchSpec    string
	benchReps    int
	benchWarmup  int
	benchQuick   bool
	benchJSON    bool
	benchOut     string
	benchCompare string
	tolerance    float64
	// measurer is the fault-injection + robust-measurement stack built
	// from -faultprofile; nil keeps the pipeline fault-unaware (and
	// byte-identical to earlier releases). measurerKey is its stage-key
	// identity (the fault profile's fingerprint).
	measurer    fault.Measurer
	measurerKey string
	// store resolves experiments through the content-addressed stage
	// graph; built in run() once flags are validated.
	store *stage.Store
}

// stageOpts assembles the stage-graph inputs every suite shares.
func (c config) stageOpts() pipeline.StageOptions {
	return pipeline.StageOptions{
		Options:     pipeline.Options{Seed: c.seed, Measurer: c.measurer},
		MeasurerKey: c.measurerKey,
	}
}

// workers resolves the -j flag (0 = GOMAXPROCS).
func (c config) workers() int {
	if c.jobs == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.jobs
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: fgbs <experiment> [flags]; run 'go doc fgbs/cmd/fgbs' for the list")
	}
	exp := args[0]
	fs := flag.NewFlagSet("fgbs", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.suite, "suite", "nas", "suite: nas, nr, poly, joint, or a registered synthetic syn-* suite")
	fs.StringVar(&cfg.target, "target", "", "target machine name")
	fs.IntVar(&cfg.k, "k", 0, "cluster count (0 = elbow)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "experiment seed")
	fs.IntVar(&cfg.trials, "trials", 1000, "random clusterings per K (f7)")
	fs.BoolVar(&cfg.full, "full", false, "full-size GA run for t2")
	fs.BoolVar(&cfg.paperSet, "paperfeatures", false, "use the exact Table 2 feature set")
	fs.StringVar(&cfg.codelet, "codelet", "", "codelet name for 'show'")
	fs.StringVar(&cfg.what, "what", "eval", "export kind: eval, sweep, features, evaljson, subsetjson or select")
	fs.StringVar(&cfg.family, "family", "", "corpus: codelet family to generate")
	fs.IntVar(&cfg.n, "n", 100, "corpus: codelets to generate with -family")
	fs.IntVar(&cfg.jobs, "j", 0, "parallel workers for f3/f7 and the sweep export (0 = GOMAXPROCS)")
	fs.StringVar(&cfg.faultPath, "faultprofile", "", "JSON fault-injection profile (chaos testing)")
	fs.IntVar(&cfg.stageCache, "stagecache", 256, "in-memory stage artifact cache size (entries)")
	fs.StringVar(&cfg.stageDir, "stagedir", "", "directory for persisted stage artifacts (optional)")
	fs.StringVar(&cfg.peers, "peers", "", "comma-separated base URLs of peer fgbsd daemons")
	fs.StringVar(&cfg.benchSpec, "spec", "", "bench: run only specs matching this regexp")
	fs.IntVar(&cfg.benchReps, "reps", 0, "bench: timed repetitions per spec (0 = default)")
	fs.IntVar(&cfg.benchWarmup, "warmup", -1, "bench: untimed warmup repetitions (-1 = default, 0 = none)")
	fs.BoolVar(&cfg.benchQuick, "quick", false, "bench: CI-gate repetition counts")
	fs.BoolVar(&cfg.benchJSON, "json", false, "bench: machine-readable output")
	fs.StringVar(&cfg.benchOut, "out", "", "bench: also write the JSON run to this path")
	fs.StringVar(&cfg.benchCompare, "compare", "", "bench: baseline BENCH_<n>.json to diff against")
	fs.Float64Var(&cfg.tolerance, "tolerance", 20, "bench: regression threshold in percent for -compare")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := validate(cfg); err != nil {
		return err
	}
	if cfg.faultPath != "" {
		fp, err := fault.Load(cfg.faultPath)
		if err == nil {
			err = fp.CheckMachines(arch.All())
		}
		if err != nil {
			return fmt.Errorf("-faultprofile: %w", err)
		}
		cfg.measurer = measure.New(fault.NewInjector(fp), measure.Config{})
		cfg.measurerKey = fp.Fingerprint()
	}
	peers, err := stage.ParsePeers(cfg.peers)
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	cfg.store = stage.NewStore(cfg.stageCache, cfg.stageDir, peers...)

	if exp == "t1" {
		return report.Table1(os.Stdout, arch.All())
	}
	if exp == "bench" {
		return cmdBench(ctx, cfg)
	}
	if exp == "corpus" {
		return cmdCorpus(cfg)
	}

	mask := features.DefaultMask()
	if cfg.paperSet {
		mask = features.PaperMask()
	}

	switch exp {
	case "t2":
		return cmdGA(ctx, cfg)
	case "t3", "f2":
		st, err := profile(ctx, cfg, "nr")
		if err != nil {
			return err
		}
		prof := st.Profile()
		ti, err := prof.TargetIndex(pickS(cfg.target, "Atom"))
		if err != nil {
			return err
		}
		sub, evals, err := st.Evaluate(ctx, mask, pick(cfg.k, 14), []int{ti})
		if err != nil {
			return err
		}
		if exp == "t3" {
			return report.Table3(os.Stdout, prof, sub, evals[0])
		}
		return report.Figure2(os.Stdout, prof, sub, evals[0], []int{0, 1})
	case "t4":
		st, err := profile(ctx, cfg, "nr")
		if err != nil {
			return err
		}
		elbowSub, err := st.Subset(ctx, mask, 0)
		if err != nil {
			return err
		}
		return report.Table4(os.Stdout, st.Profile(), mask, []int{14, elbowSub.RequestedK}, []string{"Atom", "Sandy Bridge"})
	case "t5":
		st, err := profile(ctx, cfg, "nas")
		if err != nil {
			return err
		}
		sub, err := st.Subset(ctx, mask, cfg.k)
		if err != nil {
			return err
		}
		return report.Table5(os.Stdout, st.Profile(), sub)
	case "f3":
		st, err := profile(ctx, cfg, "nas")
		if err != nil {
			return err
		}
		prof := st.Profile()
		pts, err := st.SweepK(ctx, mask, 2, 24, cfg.workers(), nil)
		if err != nil {
			return err
		}
		// The sweep resolved the normalize and cluster stages; the
		// elbow cut reuses them.
		elbowSub, err := st.Subset(ctx, mask, 0)
		if err != nil {
			return err
		}
		return report.Figure3(os.Stdout, prof, pts, elbowSub.RequestedK)
	case "f4":
		st, err := profile(ctx, cfg, "nas")
		if err != nil {
			return err
		}
		prof := st.Profile()
		ti, err := prof.TargetIndex(pickS(cfg.target, "Sandy Bridge"))
		if err != nil {
			return err
		}
		_, evals, err := st.Evaluate(ctx, mask, cfg.k, []int{ti})
		if err != nil {
			return err
		}
		return report.Figure4(os.Stdout, prof, evals[0])
	case "f5", "f6", "summary":
		st, err := profile(ctx, cfg, cfg.suite)
		if err != nil {
			return err
		}
		prof := st.Profile()
		sub, evals, err := st.Evaluate(ctx, mask, cfg.k, prof.TargetIndices())
		if err != nil {
			return err
		}
		switch exp {
		case "f5":
			return report.Figure5(os.Stdout, prof, evals)
		case "f6":
			return report.Figure6(os.Stdout, evals)
		default:
			return summary(prof, sub, evals)
		}
	case "f7":
		st, err := profile(ctx, cfg, "nas")
		if err != nil {
			return err
		}
		ti, err := st.Profile().TargetIndex(pickS(cfg.target, "Atom"))
		if err != nil {
			return err
		}
		var rows []pipeline.RandomClusteringStats
		for _, k := range []int{4, 8, 12, 16, 20, 24} {
			rcs, err := st.RandomClusterings(ctx, mask, k, cfg.trials, ti, cfg.seed, cfg.workers(), nil)
			if err != nil {
				return err
			}
			rows = append(rows, rcs)
		}
		return report.Figure7(os.Stdout, pickS(cfg.target, "Atom"), rows)
	case "f8":
		st, err := profile(ctx, cfg, "nas")
		if err != nil {
			return err
		}
		prof := st.Profile()
		var cross, per []pipeline.PerAppPoint
		for _, reps := range []int{1, 2, 3, 4, 6, 8, 10, 12} {
			pp, err := prof.PerAppSubsetting(ctx, mask, reps)
			if err != nil {
				return err
			}
			per = append(per, pp)
			cp, err := prof.CrossAppPoint(mask, pp.TotalReps)
			if err != nil {
				return err
			}
			cross = append(cross, cp)
		}
		return report.Figure8(os.Stdout, prof, cross, per)
	case "show":
		return cmdShow(cfg)
	case "export":
		st, err := profile(ctx, cfg, cfg.suite)
		if err != nil {
			return err
		}
		prof := st.Profile()
		switch cfg.what {
		case "eval", "evaljson":
			ti, err := prof.TargetIndex(pickS(cfg.target, "Atom"))
			if err != nil {
				return err
			}
			_, evals, err := st.Evaluate(ctx, mask, cfg.k, []int{ti})
			if err != nil {
				return err
			}
			if cfg.what == "evaljson" {
				return report.WriteJSON(os.Stdout, report.NewEvalJSON(prof, evals[0]))
			}
			return report.EvalCSV(os.Stdout, prof, evals[0])
		case "subsetjson":
			sub, err := st.Subset(ctx, mask, cfg.k)
			if err != nil {
				return err
			}
			sj := report.NewSubsetJSON(prof, sub)
			sj.Suite = cfg.suite
			return report.WriteJSON(os.Stdout, sj)
		case "select":
			sub, evals, err := st.Evaluate(ctx, mask, cfg.k, prof.TargetIndices())
			if err != nil {
				return err
			}
			sj := report.NewSelectJSON(prof, sub, evals)
			sj.Suite = cfg.suite
			return report.WriteJSON(os.Stdout, sj)
		case "sweep":
			pts, err := st.SweepK(ctx, mask, 2, 24, cfg.workers(), nil)
			if err != nil {
				return err
			}
			return report.SweepCSV(os.Stdout, prof, pts)
		case "features":
			return report.FeaturesCSV(os.Stdout, prof)
		default:
			return fmt.Errorf("unknown export kind %q", cfg.what)
		}
	case "dendro":
		st, err := profile(ctx, cfg, cfg.suite)
		if err != nil {
			return err
		}
		sub, err := st.Subset(ctx, mask, cfg.k)
		if err != nil {
			return err
		}
		return report.DendrogramTree(os.Stdout, st.Profile(), sub)
	case "clusters":
		st, err := profile(ctx, cfg, cfg.suite)
		if err != nil {
			return err
		}
		sub, err := st.Subset(ctx, mask, cfg.k)
		if err != nil {
			return err
		}
		return printClusters(st.Profile(), sub)
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// exportKinds are the valid -what values.
var exportKinds = []string{"eval", "sweep", "features", "evaljson", "subsetjson", "select"}

// validate rejects bad flag values up front, with errors that list the
// valid choices, instead of failing deep inside the pipeline after
// seconds of profiling.
func validate(cfg config) error {
	if cfg.k < 0 {
		return fmt.Errorf("-k must be >= 0 (0 = elbow rule), got %d", cfg.k)
	}
	if !suites.Valid(cfg.suite) {
		return fmt.Errorf("unknown suite %q (valid: %s)", cfg.suite, strings.Join(suites.Names(), ", "))
	}
	kindOK := false
	for _, k := range exportKinds {
		kindOK = kindOK || k == cfg.what
	}
	if !kindOK {
		return fmt.Errorf("unknown export kind %q (valid: %s)", cfg.what, strings.Join(exportKinds, ", "))
	}
	if cfg.target != "" {
		// Profiles measure arch.Targets() alone, so any other machine
		// (the reference, WideVec) would fail only after the build.
		var names []string
		for _, m := range arch.Targets() {
			names = append(names, m.Name)
		}
		if !slices.Contains(names, cfg.target) {
			return fmt.Errorf("unknown target %q (valid: %s)", cfg.target, strings.Join(names, ", "))
		}
	}
	if cfg.family != "" {
		if _, err := corpus.FamilyByName(cfg.family); err != nil {
			return fmt.Errorf("-family: %w", err)
		}
	}
	if cfg.n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", cfg.n)
	}
	if cfg.trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", cfg.trials)
	}
	if cfg.jobs < 0 {
		return fmt.Errorf("-j must be >= 0 (0 = GOMAXPROCS), got %d", cfg.jobs)
	}
	if cfg.benchReps < 0 {
		return fmt.Errorf("-reps must be >= 0 (0 = default), got %d", cfg.benchReps)
	}
	if cfg.tolerance < 0 {
		return fmt.Errorf("-tolerance must be >= 0 percent, got %g", cfg.tolerance)
	}
	return nil
}

// profile resolves the suite through the stage graph: the in-memory
// LRU, then the -stagedir and -peers tiers, then a fresh build.
func profile(ctx context.Context, cfg config, suite string) (*pipeline.Staged, error) {
	progs, err := suites.Programs(suite)
	if err != nil {
		return nil, err
	}
	st, _, err := pipeline.ResolveProfile(ctx, cfg.store, progs, cfg.stageOpts())
	return st, err
}

func cmdShow(cfg config) error {
	progs, err := suites.Programs(cfg.suite)
	if err != nil {
		return err
	}
	if cfg.codelet == "" {
		var names []string
		for _, p := range progs {
			for _, c := range p.Codelets {
				names = append(names, c.Name)
			}
		}
		return fmt.Errorf("show needs -codelet <name>; available: %s", strings.Join(names, " "))
	}
	for _, p := range progs {
		for _, c := range p.Codelets {
			if c.Name == cfg.codelet {
				fmt.Print(c.Source())
				return nil
			}
		}
	}
	return fmt.Errorf("codelet %q not in suite %q", cfg.codelet, cfg.suite)
}

func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func pickS(v, def string) string {
	if v != "" {
		return v
	}
	return def
}

func cmdGA(ctx context.Context, cfg config) error {
	st, err := profile(ctx, cfg, "nr")
	if err != nil {
		return err
	}
	fitness, err := st.Profile().FeatureFitness("Atom", "Sandy Bridge")
	if err != nil {
		return err
	}
	opts := ga.Options{
		Population: 120, Generations: 40, MutationProb: 0.01, Seed: cfg.seed,
		OnGeneration: func(gen int, best float64, _ features.Mask) {
			if gen%10 == 0 {
				fmt.Printf("generation %d: best fitness %.3f\n", gen, best)
			}
		},
	}
	if cfg.full {
		// The paper's configuration (§4.2).
		opts.Population, opts.Generations = 1000, 100
	}
	res, err := ga.Run(ctx, fitness, opts)
	if err != nil {
		return err
	}
	fmt.Printf("\nbest fitness %.3f after %d evaluations; %d features selected:\n\n",
		res.BestFitness, res.Evaluations, res.Best.Count())
	return report.Table2(os.Stdout, res.Best)
}

func summary(prof *pipeline.Profile, sub *pipeline.Subset, evals []*pipeline.Eval) error {
	ill := 0
	for _, b := range prof.IllBehaved {
		if b {
			ill++
		}
	}
	fmt.Printf("codelets: %d (%d ill-behaved)\nclusters: %d (requested %d, %d destroyed)\n",
		prof.N(), ill, sub.K(), sub.RequestedK, sub.Selection.Destroyed)
	for _, ev := range evals {
		if ev.Excluded == prof.N() {
			fmt.Printf("%-13s no data (%d excluded)\n", ev.Target.Name, ev.Excluded)
			continue
		}
		excluded := ""
		if ev.Excluded > 0 {
			excluded = fmt.Sprintf("  (%d excluded)", ev.Excluded)
		}
		fmt.Printf("%-13s median err %.1f%%  reduction x%.1f  geomean speedup real %.2f predicted %.2f%s\n",
			ev.Target.Name, ev.Summary.Median*100, ev.Reduction.Total,
			ev.GeoMeanRealSpeedup, ev.GeoMeanPredictedSpeedup, excluded)
	}
	return nil
}

func printClusters(prof *pipeline.Profile, sub *pipeline.Subset) error {
	reps := map[int]bool{}
	for _, r := range sub.Selection.Reps {
		reps[r] = true
	}
	groups := make([][]string, sub.K())
	for i, l := range sub.Selection.Labels {
		name := prof.Codelets[i].Name
		if reps[i] {
			name = "<" + name + ">"
		}
		groups[l] = append(groups[l], name)
	}
	for c, g := range groups {
		sort.Strings(g)
		fmt.Printf("C%-2d %v\n", c+1, g)
	}
	return nil
}

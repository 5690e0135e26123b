package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"

	"fgbs/internal/analysis"
	"fgbs/internal/arch"
	"fgbs/internal/cache"
	"fgbs/internal/cluster"
	"fgbs/internal/corpus"
	"fgbs/internal/fault"
	"fgbs/internal/features"
	"fgbs/internal/ir"
	"fgbs/internal/measure"
	"fgbs/internal/pipeline"
	"fgbs/internal/rng"
	"fgbs/internal/server"
	"fgbs/internal/sim"
	"fgbs/internal/stage"
	"fgbs/internal/stats"
	"fgbs/internal/suites/nas"
)

// The default spec registry: one spec per hot path the pipeline's
// scaling story leans on. Workload sizes are fixed (quick mode trims
// repetitions, never work), so medians stay comparable between a quick
// CI run and a full baseline.

// sink defeats any future cleverness about discarding results; specs
// fold their outputs into it so the timed work is observably used.
var sink atomic.Uint64

// benchSuite builds the synthetic two-application suite the pipeline
// specs profile: eight codelets with heterogeneous behavior (stream,
// divide, recurrence, gather) over arrays that stream past the modeled
// caches — structured enough to cluster, small enough to profile in
// well under a second.
func benchSuite() []*ir.Program {
	mk := func(appName string) *ir.Program {
		p := ir.NewProgram(appName)
		p.SetParam("n", 30000)
		p.UncoveredFraction = 0.05
		p.AddArray("a", ir.F64, ir.AV("n"))
		p.AddArray("b", ir.F64, ir.AV("n"))
		p.AddArray("c", ir.F64, ir.AV("n"))
		idx := p.AddArray("idx", ir.I64, ir.AV("n"))
		idx.Init = ir.IntInit{Kind: ir.IntInitUniform, Bound: ir.AV("n")}
		p.AddScalar("s", ir.F64)

		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_copy", Invocations: 50,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: p.LoadE("b", ir.V("i"))},
			}},
		})
		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_div", Invocations: 30,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("a", ir.V("i")),
					RHS: ir.Div(p.LoadE("b", ir.V("i")), ir.Add(p.LoadE("c", ir.V("i")), ir.CF(1.5)))},
			}},
		})
		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_rec", Invocations: 20,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(1), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("a", ir.V("i")),
					RHS: ir.Add(ir.Mul(p.LoadE("a", ir.Sub(ir.V("i"), ir.CI(1))), ir.CF(0.5)), p.LoadE("b", ir.V("i")))},
			}},
		})
		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_gather", Invocations: 25,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("s"),
					RHS: ir.Add(p.LoadE("s"), p.LoadE("c", p.LoadE("idx", ir.V("i"))))},
			}},
		})
		return p
	}
	return []*ir.Program{mk("bench1"), mk("bench2")}
}

// benchMask is the feature mask the pipeline specs cluster under.
var benchMask = features.DefaultMask()

// benchProfile profiles benchSuite at seed 1 and returns the profile
// with the store's codec for it.
func benchProfile(ctx context.Context) (*pipeline.Profile, stage.Codec, error) {
	prof, err := pipeline.NewProfileContext(ctx, benchSuite(), pipeline.Options{Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	return prof, pipeline.ProfileCodec(prof.Progs, prof.Codelets), nil
}

// countingMeasurer wraps the clean simulator and counts invocations;
// the warm-sweep spec asserts the count stays flat while stages hit.
type countingMeasurer struct {
	n atomic.Int64
}

func (m *countingMeasurer) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error) {
	m.n.Add(1)
	return fault.Sim{}.Measure(ctx, p, c, opts)
}

// nasMeasured is one codelet measured by the sim specs, with its
// options.
type nasMeasured struct {
	p    *ir.Program
	c    *ir.Codelet
	opts sim.Options
}

// nasMeasureWork returns LU's lu_rhs_x stencil, LU's lu_l2norm
// reduction and CG's indirect cg_matvec, each measured in-app on the
// reference machine at seed 1 over a prebuilt dataset.
func nasMeasureWork() ([]nasMeasured, error) {
	want := map[string]bool{"lu_rhs_x": true, "lu_l2norm": true, "cg_matvec": true}
	var work []nasMeasured
	for _, p := range []*ir.Program{nas.LU(), nas.CG()} {
		ds, err := sim.BuildDataset(p, 1)
		if err != nil {
			return nil, err
		}
		opts := sim.Options{Machine: arch.Reference(), Mode: sim.ModeInApp, Seed: 1, Dataset: ds}
		for _, c := range p.Codelets {
			if want[c.Name] {
				work = append(work, nasMeasured{p, c, opts})
			}
		}
	}
	if len(work) != len(want) {
		return nil, fmt.Errorf("found %d of the NAS codelets %v", len(work), want)
	}
	return work, nil
}

func init() {
	Register(Spec{
		Name: "cache/hierarchy-stream",
		Doc:  "set-associative LRU hierarchy: sequential stream + random writes through every level",
		Setup: func(ctx context.Context) (*Instance, error) {
			h, err := cache.NewHierarchy(arch.Reference())
			if err != nil {
				return nil, err
			}
			const span = int64(1) << 22 // 4 MiB: past L1/L2, within reach of the LLC
			r := rng.New(42)
			writes := make([]int64, 1<<15)
			for i := range writes {
				writes[i] = r.Int63n(span)
			}
			line := h.LineBytes()
			op := func() error {
				level := 0
				for addr := int64(0); addr < span; addr += line {
					level += h.Access(addr, false)
				}
				for _, addr := range writes {
					level += h.Access(addr, true)
				}
				sink.Add(uint64(level))
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "cache/hierarchy-reuse",
		Doc:  "within-line reuse: an 8 B-stride triad over 3 arrays, then an L1-resident reuse loop",
		Setup: func(ctx context.Context) (*Instance, error) {
			h, err := cache.NewHierarchy(arch.Reference())
			if err != nil {
				return nil, err
			}
			const (
				arrayBytes = int64(1) << 17 // per triad array: past L2, within the LLC
				reuseBytes = int64(1) << 10 // half the reference L1
				reusePass  = 64
			)
			a, b, c := int64(0), arrayBytes, 2*arrayBytes
			op := func() error {
				level := 0
				for off := int64(0); off < arrayBytes; off += 8 {
					level += h.Access(b+off, false)
					level += h.Access(c+off, false)
					level += h.Access(a+off, true)
				}
				for pass := 0; pass < reusePass; pass++ {
					for off := int64(0); off < reuseBytes; off += 8 {
						level += h.Access(a+off, false)
					}
				}
				sink.Add(uint64(level))
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "sim/measure-nas",
		Doc:  "sim.Measure in-app on NAS codelets: a unit-stride stencil, a stride-1 reduction and CG's indirect matvec",
		Setup: func(ctx context.Context) (*Instance, error) {
			work, err := nasMeasureWork()
			if err != nil {
				return nil, err
			}
			op := func() error {
				for _, w := range work {
					m, err := sim.Measure(w.p, w.c, w.opts)
					if err != nil {
						return err
					}
					sink.Add(uint64(m.Counters.LevelHits[0]))
				}
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "sim/measure-group",
		Doc:  "sim.MeasureGroup on the sim/measure-nas codelets: the reference and the three targets in one call, both modes",
		Setup: func(ctx context.Context) (*Instance, error) {
			work, err := nasMeasureWork()
			if err != nil {
				return nil, err
			}
			machines := arch.All()
			op := func() error {
				for _, w := range work {
					for _, mode := range []sim.Mode{sim.ModeInApp, sim.ModeStandalone} {
						opts := w.opts
						opts.Mode = mode
						ms, err := sim.MeasureGroup(w.p, w.c, machines, opts)
						if err != nil {
							return err
						}
						for _, m := range ms {
							sink.Add(uint64(m.Counters.LevelHits[0]))
						}
					}
				}
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "sim/bottleneck",
		Doc:  "bottleneck cost model: one compute-bound and one latency-bound codelet, in-app mode",
		Setup: func(ctx context.Context) (*Instance, error) {
			progs := benchSuite()
			p := progs[0]
			ds, err := sim.BuildDataset(p, 1)
			if err != nil {
				return nil, err
			}
			div, gather := p.Codelets[1], p.Codelets[3]
			opts := sim.Options{Machine: arch.Reference(), Mode: sim.ModeInApp, Seed: 1, Dataset: ds}
			op := func() error {
				for _, c := range []*ir.Codelet{div, gather} {
					m, err := sim.Measure(p, c, opts)
					if err != nil {
						return err
					}
					sink.Add(uint64(m.Counters.MemAccesses))
				}
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "cluster/ward-distance",
		Doc:  "Ward dendrogram build, dominated by the pairwise distance matrix",
		Setup: func(ctx context.Context) (*Instance, error) {
			const n, dim = 96, 16
			r := rng.New(7)
			points := make([][]float64, n)
			for i := range points {
				points[i] = make([]float64, dim)
				for j := range points[i] {
					points[i][j] = r.NormFloat64()
				}
			}
			op := func() error {
				d, err := cluster.Build(points, cluster.Ward)
				if err != nil {
					return err
				}
				sink.Add(uint64(len(d.Merges)))
				return nil
			}
			verify := func() error {
				d, err := cluster.Build(points, cluster.Ward)
				if err != nil {
					return err
				}
				if len(d.Merges) != n-1 {
					return fmt.Errorf("dendrogram has %d merges, want %d", len(d.Merges), n-1)
				}
				return nil
			}
			return &Instance{Op: op, Verify: verify}, nil
		},
	})

	Register(Spec{
		Name: "stage/key-hash",
		Doc:  "content-address derivation: 512 chained stage keys",
		Setup: func(ctx context.Context) (*Instance, error) {
			names := make([]string, 32)
			for i := range names {
				names[i] = fmt.Sprintf("codelet-%02d", i)
			}
			op := func() error {
				prev := stage.Key("seed")
				for i := 0; i < 512; i++ {
					prev = stage.NewKey("bench", 1).
						Str("suite").Strs(names).Int(i).Uint64(uint64(i) * 7).
						Float(0.25 * float64(i)).Bool(i%2 == 0).
						Upstream(prev).Key()
				}
				sink.Add(uint64(len(prev)))
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "stage/codec-roundtrip",
		Doc:  "profile artifact through the store's codec in memory: encode, decode back",
		Setup: func(ctx context.Context) (*Instance, error) {
			prof, codec, err := benchProfile(ctx)
			if err != nil {
				return nil, err
			}
			var buf []byte
			op := func() error {
				var err error
				if buf, err = codec.Encode(buf[:0], prof); err != nil {
					return err
				}
				v, err := codec.Decode(buf)
				if err != nil {
					return err
				}
				sink.Add(uint64(v.(*pipeline.Profile).N()))
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "stage/publish",
		Doc:  "durable write of the framed profile artifact stage/codec-roundtrip encodes: tmp file, fsync, rename, directory fsync",
		Setup: func(ctx context.Context) (*Instance, error) {
			prof, codec, err := benchProfile(ctx)
			if err != nil {
				return nil, err
			}
			payload, err := codec.Encode(nil, prof)
			if err != nil {
				return nil, err
			}
			data := stage.Frame(payload)
			dir, err := os.MkdirTemp("", "fgbs-bench-publish-*")
			if err != nil {
				return nil, err
			}
			op := func() error {
				return stage.Publish(dir, "bench.art", data, "", "")
			}
			return &Instance{Op: op, Cleanup: func() { os.RemoveAll(dir) }}, nil
		},
	})

	Register(Spec{
		Name: "features/normalize",
		Doc:  "z-score normalization of a 256x76 feature matrix",
		Setup: func(ctx context.Context) (*Instance, error) {
			const rows = 256
			r := rng.New(11)
			src := make([][]float64, rows)
			scratch := make([][]float64, rows)
			for i := range src {
				src[i] = make([]float64, features.NumFeatures)
				scratch[i] = make([]float64, features.NumFeatures)
				for j := range src[i] {
					src[i][j] = r.NormFloat64() * float64(j+1)
				}
			}
			op := func() error {
				for i := range src {
					copy(scratch[i], src[i])
				}
				stats.Normalize(scratch)
				sink.Add(uint64(len(scratch)))
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "corpus/generate",
		Doc:  "synthetic suite generation: 96 mixed-family codelets from one seed",
		Setup: func(ctx context.Context) (*Instance, error) {
			op := func() error {
				progs, err := corpus.Mixed(42, 96, 0)
				if err != nil {
					return err
				}
				var n int
				for _, p := range progs {
					n += len(p.Codelets)
				}
				sink.Add(uint64(n))
				return nil
			}
			verify := func() error {
				progs, err := corpus.Mixed(42, 96, 1)
				if err != nil {
					return err
				}
				wide, err := corpus.Mixed(42, 96, 0)
				if err != nil {
					return err
				}
				if corpus.Dump(progs) != corpus.Dump(wide) {
					return fmt.Errorf("corpus/generate: serial and parallel dumps differ")
				}
				return nil
			}
			return &Instance{Op: op, Verify: verify}, nil
		},
	})

	Register(Spec{
		Name: "stats/median-mad",
		Doc:  "robust summary primitives over 8192 samples: median, MAD, outlier rejection",
		Setup: func(ctx context.Context) (*Instance, error) {
			r := rng.New(23)
			xs := make([]float64, 8192)
			for i := range xs {
				xs[i] = r.NormFloat64()*5 + 100
			}
			op := func() error {
				med := stats.Median(xs)
				mad := stats.MAD(xs)
				keep := stats.MADKeep(xs, measure.DefaultMADK)
				sink.Add(uint64(len(keep)) + uint64(med+mad))
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "analysis/vet-tree",
		Doc:  "flow-sensitive fgbsvet analysis (all nine checks) over the repository's own packages, parallel workers",
		Setup: func(ctx context.Context) (*Instance, error) {
			workers := runtime.GOMAXPROCS(0)
			mod, err := analysis.LoadModule(".", workers)
			if err != nil {
				return nil, err
			}
			pkgs, err := mod.Select(nil)
			if err != nil {
				return nil, err
			}
			op := func() error {
				diags, err := analysis.Run(pkgs, analysis.Options{Workers: workers})
				if err != nil {
					return err
				}
				sink.Add(uint64(len(pkgs) + len(diags)))
				return nil
			}
			// Verify pins the two properties the parallel driver must
			// keep: the tree stays clean, and any worker count yields
			// exactly the serial run's diagnostics.
			verify := func() error {
				serial, err := analysis.Run(pkgs, analysis.Options{Workers: 1})
				if err != nil {
					return err
				}
				par, err := analysis.Run(pkgs, analysis.Options{Workers: workers})
				if err != nil {
					return err
				}
				if len(serial) != len(par) {
					return fmt.Errorf("parallel run found %d diagnostics, serial %d", len(par), len(serial))
				}
				for i := range serial {
					if serial[i].String() != par[i].String() {
						return fmt.Errorf("diagnostic %d diverged: serial %q, parallel %q", i, serial[i], par[i])
					}
				}
				if len(serial) != 0 {
					return fmt.Errorf("repository tree is not vet-clean: %d finding(s), first: %s", len(serial), serial[0])
				}
				return nil
			}
			return &Instance{Op: op, Verify: verify}, nil
		},
	})

	Register(Spec{
		Name: "pipeline/ksweep-cold",
		Doc:  "cold K sweep: profile the synthetic suite and sweep K=2..6 through a fresh stage store",
		Setup: func(ctx context.Context) (*Instance, error) {
			progs := benchSuite()
			op := func() error {
				st, _, err := pipeline.ResolveProfile(ctx, stage.NewStore(64, ""), progs, pipeline.StageOptions{Options: pipeline.Options{Seed: 1}})
				if err != nil {
					return err
				}
				pts, err := st.SweepK(ctx, benchMask, 2, 6, 1, nil)
				if err != nil {
					return err
				}
				sink.Add(uint64(len(pts)))
				return nil
			}
			return &Instance{Op: op}, nil
		},
	})

	Register(Spec{
		Name: "pipeline/ksweep-warm",
		Doc:  "warm K sweep: same sweep against a filled store — and proof the store served it",
		Setup: func(ctx context.Context) (*Instance, error) {
			progs := benchSuite()
			meas := &countingMeasurer{}
			store := stage.NewStore(64, "")
			opts := pipeline.StageOptions{
				Options:     pipeline.Options{Seed: 1, Measurer: meas},
				MeasurerKey: "bench-counting",
			}
			st, _, err := pipeline.ResolveProfile(ctx, store, progs, opts)
			if err != nil {
				return nil, err
			}
			if _, err := st.SweepK(ctx, benchMask, 2, 6, 1, nil); err != nil {
				return nil, err
			}
			coldInv := meas.n.Load()
			base := store.Stats()
			op := func() error {
				st, _, err := pipeline.ResolveProfile(ctx, store, progs, opts)
				if err != nil {
					return err
				}
				pts, err := st.SweepK(ctx, benchMask, 2, 6, 1, nil)
				if err != nil {
					return err
				}
				sink.Add(uint64(len(pts)))
				return nil
			}
			// The smoke contract formerly pinned by ci.sh's
			// BenchmarkSweepKWarm gate: a warm sweep must be served by
			// the store (hits grow past 1) without a single simulator
			// invocation beyond the cold fill.
			verify := func() error {
				if got := meas.n.Load(); got != coldInv {
					return fmt.Errorf("warm sweep ran %d simulator invocations beyond the cold fill's %d — stage cache not serving", got-coldInv, coldInv)
				}
				hits := store.Stats().Total.Hits - base.Total.Hits
				if hits <= 1 {
					return fmt.Errorf("warm sweep hit the stage cache %d times, want > 1", hits)
				}
				return nil
			}
			return &Instance{Op: op, Verify: verify}, nil
		},
	})

	Register(Spec{
		Name: "stage/peer-fetch",
		Doc:  "peer tier fetch: profile artifact served over HTTP from a warm peer, frame-verified, never recomputed",
		Setup: func(ctx context.Context) (*Instance, error) {
			prof, codec, err := benchProfile(ctx)
			if err != nil {
				return nil, err
			}
			key := stage.NewKey("bench-peer", 1).Str("profile").Key()
			payload, err := codec.Encode(nil, prof)
			if err != nil {
				return nil, err
			}
			framed := stage.Frame(payload)
			// The warm peer: serves exactly the artifact, framed for the
			// wire the way /v1/artifacts/{key} is.
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == stage.ArtifactPathPrefix+key.String() {
					w.Write(framed)
					return
				}
				http.NotFound(w, r)
			}))
			store := stage.NewStore(8, "", peer.URL)
			op := func() error {
				// Evicting the value forces the full fetch-verify-decode
				// round trip every repetition.
				store.Delete(key)
				v, out, err := store.Resolve(ctx, "bench-peer", key, codec, func(context.Context) (any, error) {
					return nil, fmt.Errorf("peer-fetch must not recompute")
				})
				if err != nil {
					return err
				}
				if out.Tier != stage.TierPeer {
					return fmt.Errorf("resolve served from tier %q, want %q", out.Tier, stage.TierPeer)
				}
				sink.Add(uint64(v.(*pipeline.Profile).N()))
				return nil
			}
			verify := func() error {
				st := store.Stats()
				p := st.Tiers[stage.TierPeer]
				if p.Hits < 1 {
					return fmt.Errorf("peer tier hits = %d, want the fetches", p.Hits)
				}
				if p.Quarantined != 0 || p.Errors != 0 {
					return fmt.Errorf("peer tier quarantined=%d errors=%d, want clean frame-verified fetches", p.Quarantined, p.Errors)
				}
				if c := st.Stages["bench-peer"].Computes; c != 0 {
					return fmt.Errorf("computes = %d, want 0 (the peer must serve every repetition)", c)
				}
				return nil
			}
			return &Instance{Op: op, Verify: verify, Cleanup: peer.Close}, nil
		},
	})

	Register(Spec{
		Name: "stage/restart-read",
		Doc:  "a new store over a warm disk directory resolving Profile on the 40-codelet fgbsbench corpus: detect key, disk read, decode",
		Setup: func(ctx context.Context) (*Instance, error) {
			progs, err := restartCorpus()
			if err != nil {
				return nil, err
			}
			dir, err := os.MkdirTemp("", "fgbs-bench-restart-*")
			if err != nil {
				return nil, err
			}
			opts := pipeline.StageOptions{Options: pipeline.Options{Seed: restartSeed}}
			// Warm the directory off the clock: one cold build, persisted.
			if _, _, err := pipeline.ResolveProfile(ctx, stage.NewStore(8, dir), progs, opts); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			op := func() error {
				// Every repetition is a restart: a fresh store over the
				// same directory, so the detect key, the disk read, the
				// frame check and the decode all run.
				st, out, err := pipeline.ResolveProfile(ctx, stage.NewStore(8, dir), progs, opts)
				if err != nil {
					return err
				}
				if out.Tier != stage.TierDisk {
					return fmt.Errorf("restart served from tier %q, want %q", out.Tier, stage.TierDisk)
				}
				sink.Add(uint64(st.Profile().N()))
				return nil
			}
			return &Instance{Op: op, Cleanup: func() { os.RemoveAll(dir) }}, nil
		},
	})

	Register(Spec{
		Name: "server/evaluate-miss",
		Doc:  "all-targets /v1/evaluate through the fgbsd handler on the 40-codelet corpus: a result-cache miss whose every stage resolve hits",
		Setup: func(ctx context.Context) (*Instance, error) {
			progs, err := restartCorpus()
			if err != nil {
				return nil, err
			}
			// One result-cache entry and two alternating K values: every
			// timed request misses the result cache, while the stage
			// store holds both queries' artifacts.
			srv := server.New(server.Config{
				Seed:            restartSeed,
				SuiteNames:      []string{"bench"},
				Programs:        func(string) ([]*ir.Program, error) { return progs, nil },
				ResultCacheSize: 1,
			})
			h := srv.Handler()
			// Off the clock: the cold build, then every stage of both
			// queries.
			for _, k := range evaluateMissKs {
				if err := serveEvaluate(ctx, h, k, ""); err != nil {
					srv.Close()
					return nil, err
				}
			}
			hits0, computes0, err := serverCounters(h)
			if err != nil {
				srv.Close()
				return nil, err
			}
			// The result cache holds the last warm-up query, so the first
			// timed one is the other K.
			n := 0
			op := func() error {
				k := evaluateMissKs[n%2]
				n++
				return serveEvaluate(ctx, h, k, "miss")
			}
			verify := func() error {
				hits, computes, err := serverCounters(h)
				if err != nil {
					return err
				}
				if hits != hits0 {
					return fmt.Errorf("result cache hit %d times, want every request to miss", hits-hits0)
				}
				if computes != computes0 {
					return fmt.Errorf("%d stage computes, want every stage resolve to hit", computes-computes0)
				}
				return nil
			}
			return &Instance{Op: op, Verify: verify, Cleanup: srv.Close}, nil
		},
	})
}

// evaluateMissKs are the two cluster counts server/evaluate-miss
// alternates between; with a one-entry result cache, each request
// evicts the other's answer.
var evaluateMissKs = [2]int{6, 7}

// serveEvaluate sends one all-targets /v1/evaluate query for k
// through h and checks that it was answered and how (X-Cache).
func serveEvaluate(ctx context.Context, h http.Handler, k int, wantCache string) error {
	body := strings.NewReader(fmt.Sprintf(`{"suite":"bench","k":%d}`, k))
	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", body).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("evaluate k=%d: status %d: %s", k, rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get("X-Cache"); wantCache != "" && got != wantCache {
		return fmt.Errorf("evaluate k=%d: X-Cache %q, want %q", k, got, wantCache)
	}
	sink.Add(uint64(rec.Body.Len()))
	return nil
}

// serverCounters reads the result-cache hits and the stage computes
// from h's /metricz.
func serverCounters(h http.Handler) (resultHits, computes int64, err error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricz", nil))
	var m struct {
		ResultCache struct {
			Hits int64 `json:"hits"`
		} `json:"resultCache"`
		Stages stage.Stats `json:"stages"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return 0, 0, fmt.Errorf("decoding /metricz: %w", err)
	}
	return m.ResultCache.Hits, m.Stages.Total.Computes, nil
}

// restartSeed is the seed fgbsbench profiles and generates its corpus
// on.
const restartSeed = 20140215

// restartCorpus is fgbsbench's corpus: 24 mixed-family codelets plus
// two composed applications of 8, 40 codelets in all.
func restartCorpus() ([]*ir.Program, error) {
	progs, err := corpus.Mixed(restartSeed, 24, 0)
	if err != nil {
		return nil, err
	}
	apps, err := corpus.ComposeApps(restartSeed, 2, 8, 0)
	if err != nil {
		return nil, err
	}
	return append(progs, apps...), nil
}

// Package server is the long-running serving layer over the
// subsetting pipeline: the paper's amortization argument turned into a
// daemon. Profiling a suite on the reference machine is expensive and
// happens at most once per suite (a lazily-built registry with
// singleflight coalescing); answering "which system is best for this
// workload?" is cheap and happens per request, with an LRU cache
// replaying repeated queries byte-for-byte.
//
// Endpoints (all JSON):
//
//	POST /v1/subset    clustering + representative selection
//	POST /v1/evaluate  per-target prediction errors + reduction factor
//	POST /v1/select    rank all targets, return the best system
//	GET  /v1/suites    known suites and their load state
//	GET  /v1/artifacts        index of stage-artifact keys this node can serve
//	GET  /v1/artifacts/{key}  framed artifact bytes — the peer-fetch endpoint (404 on miss)
//	GET  /healthz      liveness, breaker + tier state, job-queue saturation (503 when degraded)
//	GET  /metricz      request/cache/registry/stage/breaker/jobs counters, latency quantiles
//
// Long experiments (the Figure 3 sweep, the Figure 7 random baseline,
// the §4.2 GA) run asynchronously on a bounded worker pool:
//
//	POST   /v1/jobs             submit (kind: sweep | randbaseline | ga)
//	GET    /v1/jobs             list jobs, newest first
//	GET    /v1/jobs/{id}        state + progress
//	GET    /v1/jobs/{id}/result completed result
//	DELETE /v1/jobs/{id}        cancel
package server

import (
	"net/http"
	"path/filepath"
	"time"

	"fgbs/internal/fault"
	"fgbs/internal/ir"
	"fgbs/internal/jobs"
	"fgbs/internal/measure"
	"fgbs/internal/suites"
)

// Config tunes a Server. The zero value serves the built-in suites
// with the pipeline's defaults and a small result cache.
type Config struct {
	// Seed drives profiling, as the CLI's -seed flag does. Every
	// profile the server builds uses this seed, and it is part of
	// every result-cache key.
	Seed uint64
	// Workers bounds concurrent measurements per profiling run
	// (0 = GOMAXPROCS).
	Workers int
	// ProfileDir, when set, is the stage store's disk tier: built
	// profiles persist as framed <dir>/<suite>-<key>.prof artifacts and
	// load back on restart, and completed job results persist under
	// <dir>/jobs.
	ProfileDir string
	// StageCacheSize caps the in-memory stage artifact store shared by
	// all suites (entries; default 512). Every pipeline stage — from
	// whole profiles down to per-K subsets and per-target evaluations —
	// resolves through it, so repeated and overlapping queries reuse
	// upstream work instead of recomputing it.
	StageCacheSize int
	// Peers lists base URLs of peer fgbsd daemons. When set, the stage
	// store gains a peer tier that fetches artifacts from their
	// /v1/artifacts/{key} endpoints before recomputing (fgbsd's -peers
	// flag).
	Peers []string
	// MeasurerKey identifies the Measurer's configuration in stage keys
	// (fgbsd passes fault.Profile.Fingerprint()). See
	// pipeline.StageOptions.MeasurerKey.
	MeasurerKey string
	// ResultCacheSize caps the LRU result cache (entries; default 256).
	ResultCacheSize int
	// SuiteNames lists the suites the server accepts; defaults to
	// suites.Names().
	SuiteNames []string
	// Programs resolves a suite name to its IR programs; defaults to
	// suites.Programs. Tests inject small synthetic suites here.
	Programs func(string) ([]*ir.Program, error)
	// JobWorkers bounds concurrently running experiment jobs
	// (0 = GOMAXPROCS). Each job additionally fans out its own
	// experiment-level parallelism.
	JobWorkers int
	// JobQueueDepth bounds queued jobs; submits fail fast when full
	// (default 64).
	JobQueueDepth int
	// JobRetention is how long terminal jobs stay pollable
	// (default 15m).
	JobRetention time.Duration
	// Measurer, when set, replaces the raw simulator for profile
	// builds — the hook fgbsd uses to mount the fault-injection +
	// robust-measurement stack behind -faultprofile. nil keeps the
	// fault-unaware pipeline byte-identical.
	Measurer fault.Measurer
	// MeasureStats, when set, surfaces the robust measurement layer's
	// retry/outlier counters in /metricz.
	MeasureStats func() measure.Stats
	// FaultStats, when set, surfaces the fault injector's counters in
	// /metricz.
	FaultStats func() fault.Stats
	// BreakerThreshold is how many consecutive build failures open a
	// suite's circuit (default DefaultBreakerThreshold).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before one
	// half-open probe (default DefaultBreakerCooldown).
	BreakerCooldown time.Duration
}

// Server answers system-selection queries over shared, cached
// profiles. Create with New, expose via Handler, release with Close.
type Server struct {
	cfg      Config
	suiteSet []string
	breakers *breakerSet
	registry *registry
	results  *resultCache
	metrics  *httpMetrics
	jobs     *jobs.Manager
	mux      *http.ServeMux
	started  time.Time
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.ResultCacheSize <= 0 {
		cfg.ResultCacheSize = 256
	}
	if cfg.SuiteNames == nil {
		cfg.SuiteNames = suites.Names()
	}
	jobDir := ""
	if cfg.ProfileDir != "" {
		jobDir = filepath.Join(cfg.ProfileDir, "jobs")
	}
	breakers := newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, nil)
	s := &Server{
		cfg:      cfg,
		suiteSet: cfg.SuiteNames,
		breakers: breakers,
		registry: newRegistry(cfg, breakers),
		results:  newResultCache(cfg.ResultCacheSize),
		metrics:  newHTTPMetrics(),
		mux:      http.NewServeMux(),
		started:  time.Now(), //fgbs:allow determinism /healthz uptime reports real wall time; no experiment result depends on it
	}
	// The manager is built after the registry exists: NewManager's
	// recovery scan calls Rehydrate synchronously, and the rebuilt work
	// functions close over the registry.
	s.jobs = jobs.NewManager(jobs.Config{
		Workers:    cfg.JobWorkers,
		QueueDepth: cfg.JobQueueDepth,
		Retention:  cfg.JobRetention,
		Dir:        jobDir,
		Rehydrate:  s.rehydrateJob,
	})
	s.route("/v1/subset", s.handleSubset)
	s.route("/v1/evaluate", s.handleEvaluate)
	s.route("/v1/select", s.handleSelect)
	s.route("/v1/suites", s.handleSuites)
	s.route("GET /v1/artifacts", s.handleArtifactIndex)
	s.route("GET /v1/artifacts/{key}", s.handleArtifact)
	s.route("/healthz", s.handleHealthz)
	s.route("/metricz", s.handleMetricz)
	s.route("POST /v1/jobs", s.handleJobSubmit)
	s.route("GET /v1/jobs", s.handleJobList)
	s.route("GET /v1/jobs/{id}", s.handleJobGet)
	s.route("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.route("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return s
}

func (s *Server) route(path string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, s.metrics.Wrap(path, h))
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every experiment job and any in-flight profiling
// builds, then waits for the job workers to drain. In-memory profiles
// and cached results simply become garbage.
func (s *Server) Close() {
	s.jobs.Close()
	s.registry.Close()
}

// validSuite reports whether the server serves the named suite.
func (s *Server) validSuite(name string) bool {
	for _, n := range s.suiteSet {
		if n == name {
			return true
		}
	}
	return false
}

// Warm builds (or loads) the named suites' profiles ahead of traffic,
// returning the first error. The daemon calls this for -preload.
func (s *Server) Warm(suiteNames []string) error {
	for _, name := range suiteNames {
		if _, _, err := s.registry.Profile(s.registry.ctx, name); err != nil {
			return err
		}
	}
	return nil
}

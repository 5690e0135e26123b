package server

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fgbs/internal/fault"
	"fgbs/internal/ir"
	"fgbs/internal/pipeline"
	"fgbs/internal/stage"
	"fgbs/internal/suites"
)

// registry owns one lazily-built Staged profile per suite. Profiling
// is the expensive step — seconds of simulation per suite — so the
// registry coalesces concurrent demand singleflight-style: the first
// request for a suite starts exactly one detached build, every later
// request (while it runs) joins it, and a clean profile, once served,
// is shared read-only forever (see pipeline.Profile's immutability
// contract).
//
// Persistence and memoization live in the pipeline's stage store: the
// registry resolves builds through pipeline.ResolveProfile, which
// loads a previously saved profile from the store's disk directory and
// saves fresh builds back as <key>.art files, named by the profile's
// content address. The registry keeps its own flight anyway, because
// stage.Store.Resolve runs a compute under its first caller's ctx and
// a build must outlive the request that started it.
//
// Resilience: failed and degraded builds share one recovery path. A
// failed build counts against the suite's circuit breaker; a build
// that succeeds but carries failure markers (measurements lost to
// permanent faults) is served — degraded data beats no data — and
// trips the breaker at once. Either way the build slot is dropped and
// the next request the breaker admits, after its cooldown, becomes the
// half-open rebuild probe. While the breaker is open or a probe runs,
// every other request gets the served profile, marked stale, or fails
// fast when there is none.
type registry struct {
	programs    func(string) ([]*ir.Program, error)
	seed        uint64
	workers     int
	measurer    fault.Measurer
	measurerKey string
	store       *stage.Store
	breakers    *breakerSet

	// ctx is the registry's lifetime: builds run detached from any
	// single request (a canceled requester must not kill the build the
	// coalesced waiters share) but die with the server.
	ctx  context.Context
	stop context.CancelFunc

	mu       sync.Mutex
	inflight map[string]*flight          // guarded by mu; at most one build per suite
	served   map[string]*pipeline.Staged // guarded by mu; newest profile per suite, final once clean

	builds    atomic.Int64 // profiling runs started
	coalesced atomic.Int64 // requests that joined an in-flight build
	diskLoads atomic.Int64 // builds satisfied from the stage store's disk tier
	peerLoads atomic.Int64 // builds satisfied by fetching a peer's artifact
	staleHits atomic.Int64 // requests answered from a degraded profile
}

// flight is one suite's running build. done is closed when st/err are
// final.
type flight struct {
	done chan struct{}
	st   *pipeline.Staged
	err  error
}

// circuitOpenError is returned while a suite's breaker is open and no
// served profile exists to degrade onto.
type circuitOpenError struct {
	suite   string
	retryIn time.Duration
}

func (e *circuitOpenError) Error() string {
	return fmt.Sprintf("server: suite %s unavailable after repeated build failures; next probe in %.1fs", e.suite, e.retryIn.Seconds())
}

func newRegistry(cfg Config, breakers *breakerSet) *registry {
	programs := cfg.Programs
	if programs == nil {
		programs = suites.Programs
	}
	size := cfg.StageCacheSize
	if size <= 0 {
		size = 512
	}
	ctx, stop := context.WithCancel(context.Background())
	return &registry{
		programs:    programs,
		seed:        cfg.Seed,
		workers:     cfg.Workers,
		measurer:    cfg.Measurer,
		measurerKey: cfg.MeasurerKey,
		store:       stage.NewStore(size, cfg.ProfileDir, cfg.Peers...),
		breakers:    breakers,
		ctx:         ctx,
		stop:        stop,
		inflight:    make(map[string]*flight),
		served:      make(map[string]*pipeline.Staged),
	}
}

// Close cancels in-flight builds. Waiters receive the cancellation
// error.
func (r *registry) Close() { r.stop() }

func suiteKey(suite string) string { return "suite:" + suite }

// stageOpts assembles the stage-graph inputs every suite shares.
func (r *registry) stageOpts() pipeline.StageOptions {
	return pipeline.StageOptions{
		Options:     pipeline.Options{Seed: r.seed, Workers: r.workers, Measurer: r.measurer},
		MeasurerKey: r.measurerKey,
	}
}

// Staged returns the suite's staged profile, building it at most once
// per recovery attempt, plus a stale flag: true when the returned
// profile is degraded (built under permanent faults). ctx bounds this
// caller's wait, not the build itself.
func (r *registry) Staged(ctx context.Context, suite string) (*pipeline.Staged, bool, error) {
	r.mu.Lock()
	st := r.served[suite]
	if st != nil && !st.Profile().Degraded() {
		r.mu.Unlock()
		return st, false, nil
	}
	key := suiteKey(suite)
	f, joined := r.inflight[suite]
	if joined {
		r.coalesced.Add(1)
	} else if r.breakers.allow(key) {
		f = &flight{done: make(chan struct{})}
		r.inflight[suite] = f
		// Detached: the build must survive this requester giving up,
		// because coalesced waiters share its outcome.
		//fgbs:allow goroutineleak detached by design; build outlives the requester so coalesced waiters share it
		go r.build(suite, f)
	}
	r.mu.Unlock()
	if st != nil && (f == nil || joined) {
		// The breaker is open or another request's probe is running:
		// answer from the served profile instead of waiting on it.
		r.staleHits.Add(1)
		return st, true, nil
	}
	if f == nil {
		return nil, false, &circuitOpenError{suite: suite, retryIn: r.breakers.retryIn(key)}
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if f.err == nil {
		st = f.st
	} else if st == nil {
		return nil, false, f.err
	}
	// st is the fresh build or, after a failed probe, the profile
	// served before it.
	stale := st.Profile().Degraded()
	if stale {
		r.staleHits.Add(1)
	}
	return st, stale, nil
}

// build runs (or loads) the staged profile, drives the suite's
// breaker, publishes a successful outcome to served and drops the
// build slot, so the next request the breaker admits can retry — a
// transient error must not wedge the suite forever.
func (r *registry) build(suite string, f *flight) {
	r.builds.Add(1)
	f.st, f.err = r.buildStaged(suite)
	key := suiteKey(suite)
	switch {
	case f.err != nil:
		r.breakers.fail(key)
	case f.st.Profile().Degraded():
		r.breakers.trip(key)
		r.tripDataBreakers(suite, f.st.Profile())
	default:
		r.breakers.succeed(key)
		r.breakers.succeed("ref:" + suite)
		r.breakers.clearPrefix("target:" + suite + "/")
	}
	r.mu.Lock()
	if f.err == nil {
		r.served[suite] = f.st
	}
	delete(r.inflight, suite)
	r.mu.Unlock()
	close(f.done)
}

// tripDataBreakers opens the fine-grained breakers behind a degraded
// profile: one for the reference machine if any ground-truth
// measurement was lost, one per target with lost measurements.
func (r *registry) tripDataBreakers(suite string, prof *pipeline.Profile) {
	if slices.Contains(prof.RefFailed, true) {
		r.breakers.trip("ref:" + suite)
	}
	for t, m := range prof.Targets {
		if t < len(prof.TargetFailed) && slices.Contains(prof.TargetFailed[t], true) {
			r.breakers.trip("target:" + suite + "/" + m.Name)
		}
	}
}

// buildStaged resolves the suite through the stage graph. The store
// handles disk (load-or-build-then-save, with degraded profiles kept
// off disk); the registry only translates the outcome into its
// counters.
func (r *registry) buildStaged(suite string) (*pipeline.Staged, error) {
	progs, err := r.programs(suite)
	if err != nil {
		return nil, err
	}
	st, out, err := pipeline.ResolveProfile(r.ctx, r.store, progs, r.stageOpts())
	if err != nil {
		return nil, fmt.Errorf("server: profiling %s: %w", suite, err)
	}
	switch out.Tier {
	case stage.TierDisk:
		r.diskLoads.Add(1)
	case stage.TierPeer:
		r.peerLoads.Add(1)
	}
	return st, nil
}

// Loaded lists the suites with a served profile (for /v1/suites):
// the profile requests are answered from, degraded or not.
func (r *registry) Loaded() map[string]*pipeline.Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*pipeline.Profile, len(r.served))
	for name, st := range r.served {
		out[name] = st.Profile()
	}
	return out
}

// inFlightBuilds counts the builds running now (for /metricz).
func (r *registry) inFlightBuilds() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.inflight)
}

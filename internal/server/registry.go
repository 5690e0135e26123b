package server

import (
	"context"
	"fmt"
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
// request for a suite starts exactly one build, every later request
// (while it runs) waits on the same entry, and once built the staged
// profile is shared read-only forever (see pipeline.Profile's
// immutability contract).
//
// Persistence and memoization live in the pipeline's stage store: the
// registry resolves builds through a pipeline.Engine, which loads a
// previously saved profile from the store's disk directory and saves
// fresh builds back under key-qualified <suite>-<key>.json names (the
// bare <suite>.json files earlier releases wrote are still adopted,
// read-only, for measurer-free builds). The registry itself keeps no
// disk logic — it is a thin suite-name → stage-graph view, plus the
// failure policy below.
//
// Resilience: every build outcome feeds the suite's circuit breaker.
// Repeated build failures open it, after which requests fail fast (or
// serve the last good profile, marked stale) until a cooldown admits
// one half-open rebuild probe. A build that succeeds but carries
// failure markers (measurements lost to permanent faults) is kept and
// served — degraded data beats no data — but trips the suite breaker
// so a later probe can rebuild once the faults clear.
type registry struct {
	programs    func(string) ([]*ir.Program, error)
	seed        uint64
	workers     int
	measurer    fault.Measurer
	measurerKey string
	store       *stage.Store
	engine      *pipeline.Engine
	breakers    *breakerSet

	// ctx is the registry's lifetime: builds run detached from any
	// single request (a canceled requester must not kill the build the
	// coalesced waiters share) but die with the server.
	ctx  context.Context
	stop context.CancelFunc

	mu       sync.Mutex
	entries  map[string]*regEntry        // guarded by mu
	lastGood map[string]*pipeline.Staged // guarded by mu; newest served profile per suite

	builds    atomic.Int64 // profiling runs started
	coalesced atomic.Int64 // requests that joined an in-flight build
	diskLoads atomic.Int64 // builds satisfied from the stage store's disk tier
	peerLoads atomic.Int64 // builds satisfied by fetching a peer's artifact
	building  atomic.Int64 // builds currently in flight
	staleHits atomic.Int64 // requests answered from a degraded or last-good profile
}

// regEntry is one suite's build slot. ready is closed when st/err are
// final.
type regEntry struct {
	ready    chan struct{}
	st       *pipeline.Staged
	err      error
	degraded bool
}

// circuitOpenError is returned while a suite's breaker is open and no
// last-good profile exists to degrade onto.
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
	store := stage.NewStore(size, cfg.ProfileDir, cfg.Peers...)
	ctx, stop := context.WithCancel(context.Background())
	return &registry{
		programs:    programs,
		seed:        cfg.Seed,
		workers:     cfg.Workers,
		measurer:    cfg.Measurer,
		measurerKey: cfg.MeasurerKey,
		store:       store,
		engine:      pipeline.NewEngine(store),
		breakers:    breakers,
		ctx:         ctx,
		stop:        stop,
		entries:     make(map[string]*regEntry),
		lastGood:    make(map[string]*pipeline.Staged),
	}
}

// Close cancels in-flight builds. Waiters receive the cancellation
// error.
func (r *registry) Close() { r.stop() }

func suiteKey(suite string) string { return "suite:" + suite }

// stageOpts assembles the engine inputs for one suite. DiskName seeds
// the engine's key-qualified <suite>-<key>.json layout; for
// measurer-free builds the engine also falls back to the bare
// <suite>.json earlier registries wrote, so old cache directories
// keep being adopted.
func (r *registry) stageOpts(suite string) pipeline.StageOptions {
	return pipeline.StageOptions{
		Options:     pipeline.Options{Seed: r.seed, Workers: r.workers, Measurer: r.measurer},
		MeasurerKey: r.measurerKey,
		DiskName:    suite + ".json",
	}
}

// Profile returns the suite's shared profile — Staged, unwrapped, for
// callers that only need the measurements.
func (r *registry) Profile(ctx context.Context, suite string) (*pipeline.Profile, bool, error) {
	st, stale, err := r.Staged(ctx, suite)
	if err != nil {
		return nil, stale, err
	}
	return st.Profile(), stale, nil
}

// Staged returns the suite's staged profile, building it at most once,
// plus a stale flag: true when the returned data is degraded (built
// under permanent faults) or is a retained last-good profile served
// because the current build is failing. ctx bounds this caller's wait,
// not the build itself.
func (r *registry) Staged(ctx context.Context, suite string) (*pipeline.Staged, bool, error) {
	key := suiteKey(suite)
	r.mu.Lock()
	e, ok := r.entries[suite]
	if !ok {
		if !r.breakers.allow(key) {
			lg := r.lastGood[suite]
			r.mu.Unlock()
			if lg != nil {
				r.staleHits.Add(1)
				return lg, true, nil
			}
			return nil, false, &circuitOpenError{suite: suite, retryIn: r.breakers.retryIn(key)}
		}
		e = &regEntry{ready: make(chan struct{})}
		r.entries[suite] = e
		r.mu.Unlock()
		// Detached: the build must survive this requester giving up,
		// because coalesced waiters share its outcome.
		//fgbs:allow goroutineleak detached by design; build outlives the requester so coalesced waiters share it
		go r.build(suite, e)
	} else {
		lg := r.lastGood[suite]
		r.mu.Unlock()
		select {
		case <-e.ready:
		default:
			r.coalesced.Add(1)
			// A rebuild probe is in flight behind an open breaker:
			// answer from the last good profile instead of making every
			// request pay the rebuild's latency.
			if lg != nil && r.breakers.isOpen(key) {
				r.staleHits.Add(1)
				return lg, true, nil
			}
		}
	}
	select {
	case <-e.ready:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if e.err != nil {
		r.mu.Lock()
		lg := r.lastGood[suite]
		r.mu.Unlock()
		if lg != nil {
			r.staleHits.Add(1)
			return lg, true, nil
		}
		return nil, false, e.err
	}
	if e.degraded {
		// Half-open: past the cooldown one request probes a rebuild,
		// hoping the faults behind the markers were transient.
		if r.breakers.allow(key) {
			if ne := r.swapEntry(suite, e); ne != nil {
				//fgbs:allow goroutineleak detached rebuild probe; its outcome is shared via the swapped entry
				go r.build(suite, ne)
				select {
				case <-ne.ready:
				case <-ctx.Done():
					return nil, false, ctx.Err()
				}
				if ne.err == nil {
					if ne.degraded {
						r.staleHits.Add(1)
					}
					return ne.st, ne.degraded, nil
				}
			}
		}
		r.staleHits.Add(1)
		return e.st, true, nil
	}
	return e.st, false, nil
}

// swapEntry atomically replaces e with a fresh build slot, or returns
// nil if another probe already replaced it.
func (r *registry) swapEntry(suite string, e *regEntry) *regEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries[suite] != e {
		return nil
	}
	ne := &regEntry{ready: make(chan struct{})}
	r.entries[suite] = ne
	return ne
}

// build runs (or loads) the staged profile, publishes the outcome, and
// drives the suite's breaker. On failure the entry is removed so a
// later request can retry — a transient error (say, an unwritable
// cache file) must not wedge the suite forever.
func (r *registry) build(suite string, e *regEntry) {
	r.builds.Add(1)
	r.building.Add(1)
	defer r.building.Add(-1)
	e.st, e.err = r.buildStaged(suite)
	key := suiteKey(suite)
	switch {
	case e.err != nil:
		r.breakers.fail(key)
		r.mu.Lock()
		delete(r.entries, suite)
		r.mu.Unlock()
	case e.st.Profile().Degraded():
		e.degraded = true
		r.breakers.trip(key)
		r.tripDataBreakers(suite, e.st.Profile())
		r.setLastGood(suite, e.st)
	default:
		r.breakers.succeed(key)
		r.breakers.succeed("ref:" + suite)
		r.breakers.clearPrefix("target:" + suite + "/")
		r.setLastGood(suite, e.st)
	}
	close(e.ready)
}

func (r *registry) setLastGood(suite string, st *pipeline.Staged) {
	r.mu.Lock()
	// A degraded profile never displaces a clean one: the retained
	// profile is what open-circuit requests fall back on.
	if cur := r.lastGood[suite]; cur == nil || cur.Profile().Degraded() || !st.Profile().Degraded() {
		r.lastGood[suite] = st
	}
	r.mu.Unlock()
}

// tripDataBreakers opens the fine-grained breakers behind a degraded
// profile: one for the reference machine if any ground-truth
// measurement was lost, one per target with lost measurements.
func (r *registry) tripDataBreakers(suite string, prof *pipeline.Profile) {
	if anyMarked(prof.RefFailed) {
		r.breakers.trip("ref:" + suite)
	}
	for t, m := range prof.Targets {
		if t < len(prof.TargetFailed) && anyMarked(prof.TargetFailed[t]) {
			r.breakers.trip("target:" + suite + "/" + m.Name)
		}
	}
}

func anyMarked(row []bool) bool {
	for _, v := range row {
		if v {
			return true
		}
	}
	return false
}

// buildStaged resolves the suite through the stage graph. The engine
// handles disk (load-or-build-then-save, with degraded profiles kept
// off disk); the registry only translates the outcome into its
// counters.
func (r *registry) buildStaged(suite string) (*pipeline.Staged, error) {
	progs, err := r.programs(suite)
	if err != nil {
		return nil, err
	}
	st, out, err := r.engine.Profile(r.ctx, progs, r.stageOpts(suite))
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

// Loaded lists the suites with a ready profile (for /v1/suites).
func (r *registry) Loaded() map[string]*pipeline.Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*pipeline.Profile)
	for name, e := range r.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				out[name] = e.st.Profile()
			}
		default:
		}
	}
	return out
}

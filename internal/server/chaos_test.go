package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fgbs/internal/fault"
	"fgbs/internal/ir"
	"fgbs/internal/jobs"
	"fgbs/internal/measure"
	"fgbs/internal/sim"
)

// chaosSeed pins every injected fault schedule; the ci.sh chaos gate
// replays these tests with -race.
const chaosSeed = 20140215

func chaosSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// switchableMeasurer lets a test flip the measurement stack between
// faulty and clean mid-flight, the way a real lab recovers.
type switchableMeasurer struct {
	mu    sync.Mutex
	inner fault.Measurer // guarded by mu
}

func (s *switchableMeasurer) set(m fault.Measurer) {
	s.mu.Lock()
	s.inner = m
	s.mu.Unlock()
}

func (s *switchableMeasurer) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error) {
	s.mu.Lock()
	m := s.inner
	s.mu.Unlock()
	return m.Measure(ctx, p, c, opts)
}

// fakeClock drives breaker cooldowns without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time // guarded by mu
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Every chaos measurer here keeps the suite's small invocation counts
// (Invocations: -1): these tests assert breaker/staleness behavior,
// not measurement accuracy, and the 10-invocation floor would make
// each rebuild ~2.5x slower under -race on a single-core runner.

// brokenBeta injects a permanent failure for the beta_div codelet on
// every machine: the profile builds but is degraded.
func brokenBeta() fault.Measurer {
	return measure.New(fault.NewInjector(&fault.Profile{
		Seed:  chaosSeed,
		Rules: []fault.Rule{{Codelet: "beta_div", PermanentRate: 1}},
	}), measure.Config{Invocations: -1, Sleep: chaosSleep})
}

// rawBody issues a POST and returns status, headers and decoded body.
func rawBody(t *testing.T, ts *httptest.Server, path, req string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%s: decoding %q: %v", path, data, err)
	}
	return resp, m
}

// TestChaosBuildFailureOpensCircuit drives a suite whose builds fail
// outright: after breakerThreshold consecutive failures requests fail
// fast with 503 + Retry-After instead of re-running the doomed build,
// and a half-open probe after the cooldown recovers once the fault
// clears.
func TestChaosBuildFailureOpensCircuit(t *testing.T) {
	var broken atomic.Bool
	broken.Store(true)
	var calls atomic.Int64
	s := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny"},
		Programs: func(name string) ([]*ir.Program, error) {
			calls.Add(1)
			if broken.Load() {
				return nil, fmt.Errorf("injected build outage")
			}
			return testPrograms(name)
		},
	})
	defer s.Close()
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s.breakers.now = clock.now
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const q = `{"suite":"tiny","k":2}`
	for i := 0; i < breakerThreshold; i++ {
		resp, _ := rawBody(t, ts, "/v1/subset", q)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failing build %d: status = %d, want 500", i, resp.StatusCode)
		}
	}
	// Threshold reached: the circuit is open, requests fail fast.
	resp, body := rawBody(t, ts, "/v1/subset", q)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open circuit: status = %d, want 503 (body %v)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open circuit response missing Retry-After")
	}
	if got := calls.Load(); got != breakerThreshold {
		t.Errorf("build attempts = %d, want %d (fail-fast must not rebuild)", got, breakerThreshold)
	}

	var hz struct {
		OK       bool          `json:"ok"`
		Status   string        `json:"status"`
		Breakers []breakerInfo `json:"breakers"`
	}
	hresp := get(t, ts, "/healthz", &hz)
	if hresp.StatusCode != http.StatusServiceUnavailable || hz.OK || hz.Status != "degraded" {
		t.Errorf("healthz during outage = %d ok=%v status=%q, want 503 degraded", hresp.StatusCode, hz.OK, hz.Status)
	}
	foundOpen := false
	for _, bi := range hz.Breakers {
		if bi.Key == "suite:tiny" && bi.State == "open" {
			foundOpen = true
		}
	}
	if !foundOpen {
		t.Errorf("healthz breakers = %+v, want suite:tiny open", hz.Breakers)
	}

	// Fix the fault and let the cooldown elapse: one probe rebuilds.
	broken.Store(false)
	clock.advance(breakerCooldown + time.Second)
	resp, _ = rawBody(t, ts, "/v1/subset", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery probe: status = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Stale") != "" {
		t.Error("recovered response marked stale")
	}
	hresp = get(t, ts, "/healthz", &hz)
	if hresp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz after recovery = %d status=%q, want 200 ok", hresp.StatusCode, hz.Status)
	}
}

// TestChaosDegradedProfileServesStale breaks one codelet permanently:
// the suite still answers — degraded data beats no data — but every
// answer is marked "stale": true (plus X-Stale), is never cached, and
// healthz/metricz/suites surface the outage.
func TestChaosDegradedProfileServesStale(t *testing.T) {
	// Break beta_div on the Atom target only: the reference pipeline
	// stays intact (the codelet is clustered normally) but its Atom
	// measurements are lost, degrading the profile.
	inj := fault.NewInjector(&fault.Profile{
		Seed:  chaosSeed,
		Rules: []fault.Rule{{Machine: "Atom", Codelet: "beta_div", PermanentRate: 1}},
	})
	rob := measure.New(inj, measure.Config{Invocations: -1, Sleep: chaosSleep})
	s := New(Config{
		Seed:         1,
		SuiteNames:   []string{"tiny"},
		Programs:     testPrograms,
		Measurer:     rob,
		MeasurerKey:  "chaos-atom-beta",
		MeasureStats: func() measure.Stats { return rob.Stats() },
		FaultStats:   func() fault.Stats { return inj.Stats() },
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const q = `{"suite":"tiny","k":2}`
	for i := 0; i < 2; i++ {
		resp, body := rawBody(t, ts, "/v1/evaluate", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded evaluate %d: status = %d (body %v)", i, resp.StatusCode, body)
		}
		if body["stale"] != true {
			t.Errorf("degraded response %d missing \"stale\": true: %v", i, body)
		}
		if resp.Header.Get("X-Stale") != "true" {
			t.Errorf("degraded response %d missing X-Stale header", i)
		}
		// Stale answers must not be cached: recovery has to become
		// visible on the next request.
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("degraded response %d X-Cache = %q, want miss", i, got)
		}
	}
	resp, body := rawBody(t, ts, "/v1/select", q)
	if resp.StatusCode != http.StatusOK || body["stale"] != true {
		t.Errorf("select: status=%d stale=%v, want 200 true", resp.StatusCode, body["stale"])
	}

	var suites struct {
		Suites []suiteInfo `json:"suites"`
	}
	get(t, ts, "/v1/suites", &suites)
	if len(suites.Suites) != 1 || !suites.Suites[0].Degraded {
		t.Errorf("suites = %+v, want tiny degraded", suites.Suites)
	}

	var hz struct {
		Status   string        `json:"status"`
		Breakers []breakerInfo `json:"breakers"`
	}
	hresp := get(t, ts, "/healthz", &hz)
	if hresp.StatusCode != http.StatusServiceUnavailable || hz.Status != "degraded" {
		t.Errorf("healthz = %d status=%q, want 503 degraded", hresp.StatusCode, hz.Status)
	}
	keys := map[string]bool{}
	for _, bi := range hz.Breakers {
		keys[bi.Key] = bi.State != "closed"
	}
	// The whole suite plus exactly the measurement source that lost
	// data: the Atom target, nothing else.
	for _, want := range []string{"suite:tiny", "target:tiny/Atom"} {
		if !keys[want] {
			t.Errorf("breaker %q not open; have %+v", want, hz.Breakers)
		}
	}
	for _, healthy := range []string{"ref:tiny", "target:tiny/Core 2"} {
		if keys[healthy] {
			t.Errorf("breaker %q open despite healthy measurements; have %+v", healthy, hz.Breakers)
		}
	}

	var mz struct {
		Breakers struct {
			Open  int   `json:"open"`
			Trips int64 `json:"trips"`
		} `json:"breakers"`
		Registry struct {
			StaleServes int64 `json:"staleServes"`
		} `json:"registry"`
		Measure *measure.Stats `json:"measure"`
		Faults  *fault.Stats   `json:"faults"`
	}
	get(t, ts, "/metricz", &mz)
	if mz.Breakers.Open == 0 || mz.Breakers.Trips == 0 {
		t.Errorf("metricz breakers = %+v, want open circuits and trips", mz.Breakers)
	}
	if mz.Registry.StaleServes == 0 {
		t.Error("metricz staleServes = 0, want > 0")
	}
	if mz.Measure == nil || mz.Measure.Permanents == 0 {
		t.Errorf("metricz measure = %+v, want permanent failures counted", mz.Measure)
	}
	if mz.Faults == nil || mz.Faults.Permanents == 0 {
		t.Errorf("metricz faults = %+v, want injected permanents counted", mz.Faults)
	}
}

// TestChaosRecoveryProbeRestoresFreshResults heals the fault behind a
// degraded profile: before the cooldown responses stay stale without
// re-profiling; after it, one half-open probe rebuilds cleanly and the
// stale marking disappears.
func TestChaosRecoveryProbeRestoresFreshResults(t *testing.T) {
	sw := &switchableMeasurer{inner: brokenBeta()}
	s := New(Config{
		Seed:        1,
		SuiteNames:  []string{"tiny"},
		Programs:    testPrograms,
		Measurer:    sw,
		MeasurerKey: "chaos-switchable",
	})
	defer s.Close()
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s.breakers.now = clock.now
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const q = `{"suite":"tiny","k":2}`
	resp, _ := rawBody(t, ts, "/v1/subset", q)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stale") != "true" {
		t.Fatalf("degraded build: status=%d stale=%q", resp.StatusCode, resp.Header.Get("X-Stale"))
	}

	// The faults clear, but inside the cooldown nothing re-profiles.
	sw.set(measure.New(fault.Sim{}, measure.Config{Invocations: -1, Sleep: chaosSleep}))
	resp, _ = rawBody(t, ts, "/v1/subset", q)
	if resp.Header.Get("X-Stale") != "true" {
		t.Error("response inside cooldown lost its stale marking")
	}
	if got := s.registry.builds.Load(); got != 1 {
		t.Fatalf("builds inside cooldown = %d, want 1", got)
	}

	clock.advance(breakerCooldown + time.Second)
	resp, body := rawBody(t, ts, "/v1/subset", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe rebuild: status = %d (body %v)", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Stale") != "" || body["stale"] != nil {
		t.Error("recovered response still marked stale")
	}
	if got := s.registry.builds.Load(); got != 2 {
		t.Errorf("builds after probe = %d, want 2", got)
	}
	var hz struct {
		Status string `json:"status"`
	}
	hresp := get(t, ts, "/healthz", &hz)
	if hresp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz after recovery = %d status=%q", hresp.StatusCode, hz.Status)
	}
}

// TestChaosFailedProbeFallsBackToLastGood makes the recovery probe
// itself fail: the retained last-good (degraded) profile keeps
// answering, marked stale, instead of turning a partial outage into a
// total one.
func TestChaosFailedProbeFallsBackToLastGood(t *testing.T) {
	sw := &switchableMeasurer{inner: brokenBeta()}
	var buildBroken atomic.Bool
	s := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny"},
		Programs: func(name string) ([]*ir.Program, error) {
			if buildBroken.Load() {
				return nil, fmt.Errorf("injected build outage")
			}
			return testPrograms(name)
		},
		Measurer:    sw,
		MeasurerKey: "chaos-switchable",
	})
	defer s.Close()
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s.breakers.now = clock.now
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const q = `{"suite":"tiny","k":2}`
	resp, _ := rawBody(t, ts, "/v1/subset", q)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stale") != "true" {
		t.Fatalf("degraded build: status=%d stale=%q", resp.StatusCode, resp.Header.Get("X-Stale"))
	}

	// The probe rebuild fails outright; the last-good degraded profile
	// still answers.
	buildBroken.Store(true)
	clock.advance(breakerCooldown + time.Second)
	resp, _ = rawBody(t, ts, "/v1/subset", q)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stale") != "true" {
		t.Fatalf("failed probe fallback: status=%d stale=%q, want 200 stale", resp.StatusCode, resp.Header.Get("X-Stale"))
	}
	// And keeps answering fast while the circuit stays open.
	resp, _ = rawBody(t, ts, "/v1/subset", q)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stale") != "true" {
		t.Fatalf("open-circuit fallback: status=%d stale=%q, want 200 stale", resp.StatusCode, resp.Header.Get("X-Stale"))
	}
	// /v1/suites lists the profile those answers come from.
	var suites struct {
		Suites []suiteInfo `json:"suites"`
	}
	get(t, ts, "/v1/suites", &suites)
	if len(suites.Suites) != 1 || !suites.Suites[0].Loaded || !suites.Suites[0].Degraded {
		t.Errorf("suites after failed probe = %+v, want tiny loaded and degraded", suites.Suites)
	}

	// Everything heals: the next probe rebuilds cleanly.
	buildBroken.Store(false)
	sw.set(measure.New(fault.Sim{}, measure.Config{Invocations: -1, Sleep: chaosSleep}))
	clock.advance(breakerCooldown + time.Second)
	resp, body := rawBody(t, ts, "/v1/subset", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healed probe: status = %d (body %v)", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Stale") != "" {
		t.Error("healed response still stale")
	}
}

// TestChaosProbeInFlightServesRetained holds the recovery probe inside
// its build: a second request must not wait on it but answer at once
// from the served degraded profile, marked stale, and join the probe
// rather than start another build.
func TestChaosProbeInFlightServesRetained(t *testing.T) {
	sw := &switchableMeasurer{inner: brokenBeta()}
	var holdProbe atomic.Bool
	probing := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny"},
		Programs: func(name string) ([]*ir.Program, error) {
			if holdProbe.Load() {
				close(probing)
				<-release
			}
			return testPrograms(name)
		},
		Measurer:    sw,
		MeasurerKey: "chaos-switchable",
	})
	defer s.Close()
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s.breakers.now = clock.now
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Runs first on a failed check, so the held probe cannot keep the
	// server from closing.
	releaseProbe := sync.OnceFunc(func() { close(release) })
	defer releaseProbe()

	const q = `{"suite":"tiny","k":2}`
	resp, _ := rawBody(t, ts, "/v1/subset", q)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stale") != "true" {
		t.Fatalf("degraded build: status=%d stale=%q", resp.StatusCode, resp.Header.Get("X-Stale"))
	}

	// The faults clear and the cooldown elapses: the next request
	// becomes the probe, held inside its build.
	sw.set(measure.New(fault.Sim{}, measure.Config{Invocations: -1, Sleep: chaosSleep}))
	holdProbe.Store(true)
	clock.advance(breakerCooldown + time.Second)
	probeStatus := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/subset", "application/json", strings.NewReader(q))
		if err != nil {
			probeStatus <- err.Error()
			return
		}
		resp.Body.Close()
		probeStatus <- fmt.Sprintf("%d stale=%q", resp.StatusCode, resp.Header.Get("X-Stale"))
	}()
	<-probing
	holdProbe.Store(false)

	coalesced := s.registry.coalesced.Load()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/subset", "application/json", strings.NewReader(q))
	if err != nil {
		t.Fatalf("request during probe: %v (it must not wait on the probe)", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Stale") != "true" {
		t.Errorf("request during probe: status=%d stale=%q, want 200 stale", resp.StatusCode, resp.Header.Get("X-Stale"))
	}
	if got := s.registry.coalesced.Load(); got != coalesced+1 {
		t.Errorf("coalesced = %d, want %d", got, coalesced+1)
	}

	releaseProbe()
	if got := <-probeStatus; got != `200 stale=""` {
		t.Errorf("probe = %s, want 200 fresh", got)
	}
	if got := s.registry.builds.Load(); got != 2 {
		t.Errorf("builds = %d, want 2 (one build, one probe)", got)
	}
}

// TestChaosHealthzReportsJobSaturation fills the experiment-job queue
// (jobs' default depth of 64): healthz flips to 503/degraded with
// saturated=true, and recovers when the queue drains.
func TestChaosHealthzReportsJobSaturation(t *testing.T) {
	s := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny"},
		Programs:   testPrograms,
		JobWorkers: 1,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	// Buffered: the worker may reach the send before the test blocks
	// on <-running, and the signal must not be dropped then.
	running := make(chan struct{}, 1)
	blocker := func(ctx context.Context, pr *jobs.Progress) (any, error) {
		select {
		case running <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "done", nil
	}
	j1, err := s.jobs.Submit("sweep", nil, blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-running // the worker is busy; the next submits stay queued
	_, depth := s.jobs.Saturation()
	queued := make([]*jobs.Job, depth)
	for i := range queued {
		if queued[i], err = s.jobs.Submit("sweep", nil, blocker); err != nil {
			t.Fatal(err)
		}
	}

	var hz struct {
		Status   string `json:"status"`
		JobQueue struct {
			Queued    int64 `json:"queued"`
			Saturated bool  `json:"saturated"`
		} `json:"jobQueue"`
	}
	hresp := get(t, ts, "/healthz", &hz)
	if hresp.StatusCode != http.StatusServiceUnavailable || hz.Status != "degraded" || !hz.JobQueue.Saturated {
		t.Errorf("saturated healthz = %d status=%q jobQueue=%+v, want 503 degraded saturated",
			hresp.StatusCode, hz.Status, hz.JobQueue)
	}

	close(release)
	<-j1.Done()
	for _, j := range queued {
		<-j.Done()
	}
	hresp = get(t, ts, "/healthz", &hz)
	if hresp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.JobQueue.Saturated {
		t.Errorf("drained healthz = %d status=%q jobQueue=%+v, want 200 ok", hresp.StatusCode, hz.Status, hz.JobQueue)
	}
}

package server

import (
	"bytes"
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

	"fgbs/internal/ir"
	"fgbs/internal/pipeline"
	"fgbs/internal/report"
)

// testSuite builds a small synthetic suite: two applications, each
// with a streaming and a divide-heavy codelet, so clustering has
// structure at a fraction of the real suites' profiling cost.
func testSuite() []*ir.Program {
	mk := func(appName string) *ir.Program {
		p := ir.NewProgram(appName)
		p.SetParam("n", 200000) // streams past every modeled cache, so screening passes
		p.UncoveredFraction = 0.05
		p.AddArray("a", ir.F64, ir.AV("n"))
		p.AddArray("b", ir.F64, ir.AV("n"))
		p.AddArray("c", ir.F64, ir.AV("n"))
		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_copy", Invocations: 6,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: p.LoadE("b", ir.V("i"))},
			}},
		})
		p.MustAddCodelet(&ir.Codelet{
			Name: appName + "_div", Invocations: 4,
			Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("a", ir.V("i")),
					RHS: ir.Div(p.LoadE("b", ir.V("i")), ir.Add(p.LoadE("c", ir.V("i")), ir.CF(1.5)))},
			}},
		})
		return p
	}
	return []*ir.Program{mk("alpha"), mk("beta")}
}

// testPrograms resolves every known test suite name to testSuite.
func testPrograms(name string) ([]*ir.Program, error) {
	switch name {
	case "tiny", "spare":
		return testSuite(), nil
	default:
		return nil, fmt.Errorf("unknown test suite %q", name)
	}
}

// sharedProfile profiles testSuite once per test binary.
var (
	profOnce sync.Once
	profVal  *pipeline.Profile
	profErr  error
)

func sharedProfile(t *testing.T) *pipeline.Profile {
	t.Helper()
	profOnce.Do(func() {
		profVal, profErr = pipeline.NewProfile(testSuite(), pipeline.Options{Seed: 1})
	})
	if profErr != nil {
		t.Fatal(profErr)
	}
	return profVal
}

// seedSuite plants a prebuilt profile as the suite's ready registry
// entry, adopted into the stage graph so staged queries resolve it.
func seedSuite(t *testing.T, s *Server, suite string, prof *pipeline.Profile) {
	t.Helper()
	progs, err := s.registry.programs(suite)
	if err != nil {
		t.Fatal(err)
	}
	st := s.registry.engine.Adopt(progs, s.registry.stageOpts(suite), prof)
	e := &regEntry{ready: make(chan struct{}), st: st}
	close(e.ready)
	s.registry.entries[suite] = e
}

// newTestServer builds a server over the test suites with the "tiny"
// profile pre-seeded, so endpoint tests skip the build path (the build
// path has its own tests below and in registry_test.go).
func newTestServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny", "spare"},
		Programs:   testPrograms,
	})
	t.Cleanup(s.Close)
	seedSuite(t, s, "tiny", sharedProfile(t))
	return s
}

// post issues a JSON POST and decodes the response into out.
func post(t *testing.T, ts *httptest.Server, path string, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s: decoding %q: %v", path, data, err)
		}
	}
	return resp
}

func get(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).Handler())
	defer ts.Close()
	var body struct {
		OK            bool    `json:"ok"`
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
		JobQueue      struct {
			Queued    int64 `json:"queued"`
			Depth     int   `json:"depth"`
			Saturated bool  `json:"saturated"`
		} `json:"jobQueue"`
	}
	resp := get(t, ts, "/healthz", &body)
	if resp.StatusCode != http.StatusOK || !body.OK || body.Status != "ok" {
		t.Errorf("healthz = %d, ok=%v status=%q", resp.StatusCode, body.OK, body.Status)
	}
	if body.JobQueue.Depth <= 0 || body.JobQueue.Saturated {
		t.Errorf("jobQueue = %+v, want positive depth, unsaturated", body.JobQueue)
	}
}

func TestSubsetEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).Handler())
	defer ts.Close()
	var sj report.SubsetJSON
	resp := post(t, ts, "/v1/subset", `{"suite":"tiny","k":2}`, &sj)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if sj.Suite != "tiny" || sj.K != 2 || len(sj.Clusters) != 2 {
		t.Errorf("subset = suite %q k %d clusters %d", sj.Suite, sj.K, len(sj.Clusters))
	}
	members := 0
	for _, c := range sj.Clusters {
		members += len(c.Members)
		if c.Representative == "" {
			t.Errorf("cluster %d without representative", c.ID)
		}
	}
	if members != sharedProfile(t).N() {
		t.Errorf("clusters cover %d codelets, want %d", members, sharedProfile(t).N())
	}

	// The identical query must be an LRU hit replaying the same bytes.
	var again report.SubsetJSON
	resp2 := post(t, ts, "/v1/subset", `{"suite":"tiny","k":2}`, &again)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat request X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if again.K != sj.K || len(again.Clusters) != len(sj.Clusters) {
		t.Error("cached response differs from computed one")
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).Handler())
	defer ts.Close()
	prof := sharedProfile(t)
	target := prof.Targets[0].Name

	var one struct {
		Suite string             `json:"suite"`
		K     int                `json:"k"`
		Evals []*report.EvalJSON `json:"evals"`
	}
	body := fmt.Sprintf(`{"suite":"tiny","k":2,"target":%q}`, target)
	resp := post(t, ts, "/v1/evaluate", body, &one)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(one.Evals) != 1 || one.Evals[0].Target != target {
		t.Fatalf("evals = %+v, want one for %s", one.Evals, target)
	}
	ev := one.Evals[0]
	if ev.Reduction.Total <= 0 {
		t.Errorf("reduction factor = %v, want > 0", ev.Reduction.Total)
	}
	if len(ev.Codelets) != prof.N() {
		t.Errorf("codelet rows = %d, want %d", len(ev.Codelets), prof.N())
	}
	if len(ev.Apps) != 2 {
		t.Errorf("app rows = %d, want 2", len(ev.Apps))
	}

	var all struct {
		Evals []*report.EvalJSON `json:"evals"`
	}
	post(t, ts, "/v1/evaluate", `{"suite":"tiny","k":2}`, &all)
	if len(all.Evals) != len(prof.Targets) {
		t.Errorf("all-target evals = %d, want %d", len(all.Evals), len(prof.Targets))
	}
}

func TestSelectEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).Handler())
	defer ts.Close()
	prof := sharedProfile(t)

	var sel report.SelectJSON
	resp := post(t, ts, "/v1/select", `{"suite":"tiny","k":2}`, &sel)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(sel.Ranking) != len(prof.Targets) {
		t.Fatalf("ranking has %d entries, want %d", len(sel.Ranking), len(prof.Targets))
	}
	for i := 1; i < len(sel.Ranking); i++ {
		if sel.Ranking[i].GeoMeanPredictedSpeedup > sel.Ranking[i-1].GeoMeanPredictedSpeedup {
			t.Error("ranking not sorted by predicted speedup")
		}
	}
	if sel.BestPredicted != sel.Ranking[0].Target {
		t.Errorf("bestPredicted = %q, ranking head = %q", sel.BestPredicted, sel.Ranking[0].Target)
	}
	if sel.BestMeasured == "" {
		t.Error("bestMeasured empty")
	}
	if len(sel.Apps) != 2 {
		t.Errorf("per-app winners = %d, want 2", len(sel.Apps))
	}
}

func TestSuitesEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t).Handler())
	defer ts.Close()
	var body struct {
		Suites []struct {
			Name     string `json:"name"`
			Loaded   bool   `json:"loaded"`
			Codelets int    `json:"codelets"`
		} `json:"suites"`
	}
	get(t, ts, "/v1/suites", &body)
	if len(body.Suites) != 2 {
		t.Fatalf("suites = %d, want 2", len(body.Suites))
	}
	byName := map[string]bool{}
	for _, s := range body.Suites {
		byName[s.Name] = s.Loaded
		if s.Name == "tiny" && s.Codelets != sharedProfile(t).N() {
			t.Errorf("tiny codelets = %d", s.Codelets)
		}
	}
	if !byName["tiny"] || byName["spare"] {
		t.Errorf("loaded flags = %v, want tiny loaded, spare not", byName)
	}
}

func TestBadRequests(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"GET on subset", http.MethodGet, "/v1/subset", "", http.StatusMethodNotAllowed},
		{"POST on suites", http.MethodPost, "/v1/suites", "{}", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "/v1/select", "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/select", `{"suite":"tiny","bogus":1}`, http.StatusBadRequest},
		{"unknown suite", http.MethodPost, "/v1/select", `{"suite":"spec"}`, http.StatusBadRequest},
		{"negative k", http.MethodPost, "/v1/subset", `{"suite":"tiny","k":-1}`, http.StatusBadRequest},
		{"bad features", http.MethodPost, "/v1/subset", `{"suite":"tiny","features":"nope"}`, http.StatusBadRequest},
		{"bad target", http.MethodPost, "/v1/evaluate", `{"suite":"tiny","target":"PDP-11"}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, "/v1/subset", `{"suite":"tiny","k":2} not json at all`, http.StatusBadRequest},
		{"second object", http.MethodPost, "/v1/subset", `{"suite":"tiny","k":2}{"k":99,"bogus":1}`, http.StatusBadRequest},
		{"over limit", http.MethodPost, "/v1/subset", oversizedBody(`{"suite":"tiny","k":2}`), http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, c.status)
			}
			var e errorJSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Errorf("error body missing: %v", err)
			}
		})
	}
	// Trailing whitespace is not data: a newline-terminated body is fine.
	if resp := post(t, ts, "/v1/subset", "{\"suite\":\"tiny\",\"k\":2}\n", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("newline-terminated body: status = %d, want 200", resp.StatusCode)
	}
}

// oversizedBody pads a valid JSON object with whitespace until it
// exceeds maxRequestBody.
func oversizedBody(obj string) string {
	return obj + strings.Repeat(" ", maxRequestBody)
}

// TestCoalescing is the acceptance scenario: concurrent identical
// first requests trigger exactly one profiling run, observable via
// /metricz, and a repeated request afterwards hits the LRU cache.
func TestCoalescing(t *testing.T) {
	var builds atomic.Int64
	release := make(chan struct{})
	s := New(Config{
		Seed:       1,
		SuiteNames: []string{"tiny"},
		Programs: func(name string) ([]*ir.Program, error) {
			builds.Add(1)
			// Hold the profiling run open until the test has seen all
			// clients pile up behind it, making coalescing
			// deterministic rather than a race against a fast build.
			<-release
			return testPrograms(name)
		},
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 4
	var wg sync.WaitGroup
	bodies := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/select", "application/json",
				bytes.NewReader([]byte(`{"suite":"tiny","k":2}`)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = string(data)
		}(i)
	}

	// Wait until every client except the build owner has joined the
	// in-flight build, then let it finish.
	deadline := time.Now().Add(10 * time.Second)
	for s.registry.coalesced.Load() != clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d after 10s, want %d", s.registry.coalesced.Load(), clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Errorf("profiling runs = %d, want exactly 1 (coalescing broken)", got)
	}
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("client %d got a different response", i)
		}
	}

	// The repeated request is served from the LRU cache...
	resp, err := http.Post(ts.URL+"/v1/select", "application/json",
		bytes.NewReader([]byte(`{"suite":"tiny","k":2}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}

	// ...and the whole story is visible in /metricz.
	var m struct {
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"endpoints"`
		ResultCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
			Size   int64 `json:"size"`
		} `json:"resultCache"`
		Registry struct {
			Builds    int64 `json:"builds"`
			Coalesced int64 `json:"coalesced"`
		} `json:"registry"`
	}
	get(t, ts, "/metricz", &m)
	if m.Registry.Builds != 1 {
		t.Errorf("metricz builds = %d, want 1", m.Registry.Builds)
	}
	if m.Registry.Coalesced != clients-1 {
		t.Errorf("metricz coalesced = %d, want %d", m.Registry.Coalesced, clients-1)
	}
	if m.ResultCache.Hits < 1 || m.ResultCache.Size != 1 {
		t.Errorf("result cache hits=%d size=%d, want >=1 hit and size 1", m.ResultCache.Hits, m.ResultCache.Size)
	}
	if ep := m.Endpoints["/v1/select"]; ep.Requests != clients+1 || ep.Errors != 0 {
		t.Errorf("select endpoint stats = %+v", ep)
	}
}

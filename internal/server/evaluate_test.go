package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fgbs/internal/features"
	"fgbs/internal/pipeline"
	"fgbs/internal/report"
)

// evaluateResponse is the reference shape of a /v1/evaluate body. The
// handler assembles its bytes around each Eval's own encoding, and
// they must equal json.Marshal of this struct.
type evaluateResponse struct {
	Suite string             `json:"suite"`
	K     int                `json:"k"`
	Evals []*report.EvalJSON `json:"evals"`
}

// wantEvaluate renders the reference body for an evaluate query on
// prof: every target when target is "", else that one.
func wantEvaluate(t *testing.T, prof *pipeline.Profile, suite string, k int, target string) []byte {
	t.Helper()
	sub, err := prof.Subset(features.DefaultMask(), k)
	if err != nil {
		t.Fatal(err)
	}
	resp := evaluateResponse{Suite: suite, K: sub.K()}
	for ti, m := range prof.Targets {
		if target != "" && target != m.Name {
			continue
		}
		ev, err := prof.Evaluate(sub, ti)
		if err != nil {
			t.Fatal(err)
		}
		resp.Evals = append(resp.Evals, report.NewEvalJSON(prof, ev))
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postRaw issues a JSON POST and returns the response with its body.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// evaluateQuery is the request body for k and target ("" = every
// target).
func evaluateQuery(k int, target string) string {
	if target == "" {
		return fmt.Sprintf(`{"suite":"tiny","k":%d}`, k)
	}
	return fmt.Sprintf(`{"suite":"tiny","k":%d,"target":%q}`, k, target)
}

// countEncodes swaps evalEncoder for one that counts its runs per
// Eval (and fails them with fail, when set) until the test ends.
func countEncodes(t *testing.T, fail error) (counts func() map[*pipeline.Eval]int) {
	t.Helper()
	var (
		mu sync.Mutex
		n  = map[*pipeline.Eval]int{}
	)
	orig := evalEncoder
	evalEncoder = func(p *pipeline.Profile) func(*pipeline.Eval) ([]byte, error) {
		enc := orig(p)
		return func(ev *pipeline.Eval) ([]byte, error) {
			mu.Lock()
			n[ev]++
			mu.Unlock()
			if fail != nil {
				return nil, fail
			}
			return enc(ev)
		}
	}
	t.Cleanup(func() { evalEncoder = orig })
	return func() map[*pipeline.Eval]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[*pipeline.Eval]int, len(n))
		for ev, c := range n {
			out[ev] = c
		}
		return out
	}
}

// TestEvaluateBodiesMatchReference pins /v1/evaluate's bytes, for each
// target and the all-targets form, against json.Marshal of the
// evaluateResponse: on a result-cache miss, on the hit that replays
// it, and on a stale answer from a degraded profile, which is decorated
// and never cached.
func TestEvaluateBodiesMatchReference(t *testing.T) {
	prof := sharedProfile(t)
	degraded, err := pipeline.NewProfile(testSuite(), pipeline.Options{Seed: 1, Measurer: brokenBeta()})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded.Degraded() {
		t.Fatal("brokenBeta profile is not degraded")
	}

	fresh := newTestServer(t)
	ts := httptest.NewServer(fresh.Handler())
	defer ts.Close()

	// The stale server serves the degraded profile with its suite
	// circuit open, so every request is answered from it without a
	// rebuild. Its breaker clock never advances: the cooldown never
	// elapses.
	stale := New(Config{Seed: 1, SuiteNames: []string{"tiny"}, Programs: testPrograms})
	t.Cleanup(stale.Close)
	stale.breakers.now = (&fakeClock{t: time.Unix(1_700_000_000, 0)}).now
	seedSuite(t, stale, "tiny", degraded)
	stale.breakers.trip(suiteKey("tiny"))
	tsStale := httptest.NewServer(stale.Handler())
	defer tsStale.Close()

	targets := []string{""}
	for _, m := range prof.Targets {
		targets = append(targets, m.Name)
	}
	const k = 2
	for _, target := range targets {
		name := target
		if name == "" {
			name = "all"
		}
		q := evaluateQuery(k, target)
		want := wantEvaluate(t, prof, "tiny", k, target)
		for _, c := range []struct {
			name, cache string
		}{{"miss", "miss"}, {"hit", "hit"}} {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				resp, got := postRaw(t, ts, "/v1/evaluate", q)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d: %s", resp.StatusCode, got)
				}
				if h := resp.Header.Get("X-Cache"); h != c.cache {
					t.Errorf("X-Cache = %q, want %q", h, c.cache)
				}
				if string(got) != string(want) {
					t.Errorf("body differs from the reference:\n got %s\nwant %s", got, want)
				}
			})
		}
		wantStale := strings.TrimSuffix(string(wantEvaluate(t, degraded, "tiny", k, target)), "}") + `,"stale":true}`
		t.Run(name+"/stale", func(t *testing.T) {
			for i := 0; i < 2; i++ {
				resp, got := postRaw(t, tsStale, "/v1/evaluate", q)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d: %s", resp.StatusCode, got)
				}
				if resp.Header.Get("X-Stale") != "true" || resp.Header.Get("X-Cache") != "miss" {
					t.Errorf("request %d: X-Stale = %q, X-Cache = %q, want true, miss",
						i, resp.Header.Get("X-Stale"), resp.Header.Get("X-Cache"))
				}
				if string(got) != wantStale {
					t.Errorf("request %d: body differs from the reference:\n got %s\nwant %s", i, got, wantStale)
				}
			}
		})
	}
	if n := stale.results.Len(); n != 0 {
		t.Errorf("stale server cached %d answers, want none", n)
	}
}

// TestEvaluateEncodesEachEvalOnce fires concurrent first requests for
// one (mask, K) — the all-targets form and every single-target form,
// so different result keys reach the same Evals at once. Every request
// of a form gets the same bytes, and each Eval is encoded exactly
// once. Meaningful under -race.
func TestEvaluateEncodesEachEvalOnce(t *testing.T) {
	counts := countEncodes(t, nil)
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	prof := sharedProfile(t)

	queries := []string{evaluateQuery(3, "")}
	for _, m := range prof.Targets {
		queries = append(queries, evaluateQuery(3, m.Name))
	}
	const perQuery = 4
	bodies := make([][]string, len(queries))
	for i := range bodies {
		bodies[i] = make([]string, perQuery)
	}
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for i, q := range queries {
		for j := 0; j < perQuery; j++ {
			wg.Add(1)
			go func(i, j int, q string) {
				defer wg.Done()
				<-start
				resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(q))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				data, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d, err %v: %s", q, resp.StatusCode, err, data)
					return
				}
				bodies[i][j] = string(data)
			}(i, j, q)
		}
	}
	close(start)
	wg.Wait()

	for i, q := range queries {
		for j := 1; j < perQuery; j++ {
			if bodies[i][j] != bodies[i][0] {
				t.Errorf("%s: concurrent bodies differ:\n%s\n%s", q, bodies[i][j], bodies[i][0])
			}
		}
	}
	got := counts()
	if len(got) != len(prof.Targets) {
		t.Errorf("encoded %d Evals, want one per target (%d)", len(got), len(prof.Targets))
	}
	for ev, n := range got {
		if n != 1 {
			t.Errorf("Eval for %s encoded %d times, want once", ev.Target.Name, n)
		}
	}
}

// TestEvaluateEncodeErrorIs500 pins the failure path: an Eval that
// cannot be encoded answers 500 "encoding response", and nothing is
// cached, so the repeat fails the same way instead of replaying.
func TestEvaluateEncodeErrorIs500(t *testing.T) {
	countEncodes(t, errors.New("boom"))
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, data := postRaw(t, ts, "/v1/evaluate", evaluateQuery(2, ""))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want 500: %s", i, resp.StatusCode, data)
		}
		var body errorJSON
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("request %d: decoding %q: %v", i, data, err)
		}
		if body.Error != "encoding response: boom" {
			t.Errorf("request %d: error = %q, want %q", i, body.Error, "encoding response: boom")
		}
		if resp.Header.Get("X-Cache") != "" {
			t.Errorf("request %d: X-Cache = %q on an error", i, resp.Header.Get("X-Cache"))
		}
	}
	if n := s.results.Len(); n != 0 {
		t.Errorf("result cache holds %d entries after encode errors, want 0", n)
	}
}

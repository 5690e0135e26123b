package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fgbs/internal/features"
	"fgbs/internal/pipeline"
	"fgbs/internal/report"
	"fgbs/internal/stage"
)

// serve runs one request through h under ctx and returns the
// recorded response.
func serve(ctx context.Context, h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAnswerCoalescesIdenticalQueries fires identical cold selects at
// once: exactly one renders the answer and reports X-Cache: miss, every
// other request joins it or replays it as a hit, and all bodies are
// the same bytes. /metricz counts every lookup as a hit or a miss.
// Repeated under -race by ci.sh's answers step: which requests join and
// which hit depends on the interleaving.
func TestAnswerCoalescesIdenticalQueries(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	const clients = 8
	recs := make([]*httptest.ResponseRecorder, clients)
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			recs[i] = serve(context.Background(), h, "/v1/select", `{"suite":"tiny","k":2}`)
		}(i)
	}
	close(start)
	wg.Wait()

	misses := 0
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, rec.Code, rec.Body)
		}
		switch h := rec.Header().Get("X-Cache"); h {
		case "miss":
			misses++
		case "hit":
		default:
			t.Errorf("client %d: X-Cache = %q", i, h)
		}
		if rec.Body.String() != recs[0].Body.String() {
			t.Errorf("client %d got different bytes:\n%s\n%s", i, rec.Body, recs[0].Body)
		}
	}
	if misses != 1 {
		t.Errorf("%d responses report X-Cache: miss, want exactly 1", misses)
	}
	if st := s.results.Stats(); st.Total.Computes != 1 {
		t.Errorf("answer computes = %d, want 1 (stats %+v)", st.Total.Computes, st.Total)
	}
	var m struct {
		ResultCache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"resultCache"`
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.ResultCache.Hits != clients-1 || m.ResultCache.Misses != 1 {
		t.Errorf("/metricz resultCache hits=%d misses=%d, want %d and 1", m.ResultCache.Hits, m.ResultCache.Misses, clients-1)
	}
}

// TestAnswerLeaderCancelFailsOnlyItself cancels the request rendering
// an answer while others wait on that render: the waiters still get
// the answer, byte-identical to the reference. The render is held open
// before its stage work, so a render that ran under the leader's
// context would fail there and hand its error to every waiter.
func TestAnswerLeaderCancelFailsOnlyItself(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	orig := evalEncoder
	evalEncoder = func(p *pipeline.Profile) func(*pipeline.Eval) ([]byte, error) {
		once.Do(func() {
			close(entered)
			<-release
		})
		return orig(p)
	}
	t.Cleanup(func() { evalEncoder = orig })

	const k, waiters = 2, 4
	q := evaluateQuery(k, "")
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		leader *httptest.ResponseRecorder
		recs   = make([]*httptest.ResponseRecorder, waiters)
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader = serve(leaderCtx, h, "/v1/evaluate", q)
	}()
	<-entered
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = serve(context.Background(), h, "/v1/evaluate", q)
		}(i)
	}
	waitFor(t, "every waiter to join the render", func() bool { return s.results.Stats().Total.Joined == waiters })
	cancel()
	close(release)
	wg.Wait()

	if leader.Code != http.StatusOK && leader.Code != http.StatusServiceUnavailable {
		t.Errorf("canceled leader: status %d, want 200 or 503: %s", leader.Code, leader.Body)
	}
	want := string(wantEvaluate(t, sharedProfile(t), "tiny", k, ""))
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Errorf("waiter %d: status %d: %s", i, rec.Code, rec.Body)
			continue
		}
		if h := rec.Header().Get("X-Cache"); h != "hit" {
			t.Errorf("waiter %d: X-Cache = %q, want hit", i, h)
		}
		if rec.Body.String() != want {
			t.Errorf("waiter %d: body differs from the reference:\n got %s\nwant %s", i, rec.Body, want)
		}
	}
}

// TestResultCacheLRUEviction pins that ResultCacheSize bounds the
// results store and that the least recently used answer goes first.
func TestResultCacheLRUEviction(t *testing.T) {
	s := New(Config{Seed: 1, SuiteNames: []string{"tiny"}, Programs: testPrograms, ResultCacheSize: 2})
	t.Cleanup(s.Close)
	seedSuite(t, s, "tiny", sharedProfile(t))
	h := s.Handler()
	subset := func(k int, want string) {
		t.Helper()
		rec := serve(context.Background(), h, "/v1/subset", evaluateQuery(k, ""))
		if rec.Code != http.StatusOK {
			t.Fatalf("k=%d: status %d: %s", k, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Cache"); got != want {
			t.Errorf("k=%d: X-Cache = %q, want %q", k, got, want)
		}
	}
	subset(2, "miss")
	subset(3, "miss")
	subset(2, "hit")  // touch k=2 so k=3 is the eviction victim
	subset(4, "miss") // evicts k=3
	subset(2, "hit")
	subset(4, "hit")
	subset(3, "miss")
	if n := s.results.Len(); n != 2 {
		t.Errorf("results store holds %d answers, want 2", n)
	}
}

// TestResultCacheSharesSegments pins that a stored evaluate answer
// references each Eval's own encoding instead of copying it.
func TestResultCacheSharesSegments(t *testing.T) {
	s := newTestServer(t)
	const k = 2
	if rec := serve(context.Background(), s.Handler(), "/v1/evaluate", evaluateQuery(k, "")); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	mask := features.DefaultMask()
	v, ok := s.results.Get(stage.Key(resultKey("evaluate", "tiny", mask.String(), k, "*")))
	if !ok {
		t.Fatal("answer not stored")
	}
	body := v.([][]byte)
	st, _, err := s.registry.Staged(context.Background(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	prof := st.Profile()
	_, evals, err := st.Evaluate(context.Background(), mask, k, prof.TargetIndices())
	if err != nil {
		t.Fatal(err)
	}
	// body is the head, then each Eval's bytes with commas between,
	// then the closing bracket.
	if len(body) != 2*len(evals)+1 {
		t.Fatalf("answer has %d segments, want %d", len(body), 2*len(evals)+1)
	}
	for i, ev := range evals {
		enc, err := ev.Encoded(report.EvalEncoder(prof))
		if err != nil {
			t.Fatal(err)
		}
		if seg := body[1+2*i]; &seg[0] != &enc[0] {
			t.Errorf("segment for %s is a copy, want the Eval's own encoding", ev.Target.Name)
		}
	}
}

// TestResultCacheStats pins /metricz's resultCache section over
// sequential traffic: a repeat is a hit, each new query a miss.
func TestResultCacheStats(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for _, k := range []int{2, 2, 2, 3} {
		if rec := serve(context.Background(), h, "/v1/subset", evaluateQuery(k, "")); rec.Code != http.StatusOK {
			t.Fatalf("k=%d: status %d: %s", k, rec.Code, rec.Body)
		}
	}
	var m struct {
		ResultCache struct {
			Hits     int64 `json:"hits"`
			Misses   int64 `json:"misses"`
			Size     int   `json:"size"`
			Capacity int   `json:"capacity"`
		} `json:"resultCache"`
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if rc := m.ResultCache; rc.Hits != 2 || rc.Misses != 2 || rc.Size != 2 || rc.Capacity != 256 {
		t.Errorf("resultCache = %+v, want 2 hits, 2 misses, size 2, capacity 256", rc)
	}
}

func TestResultKeyDistinguishesQueries(t *testing.T) {
	base := resultKey("select", "nas", "1010", 4, "*")
	for _, other := range []string{
		resultKey("subset", "nas", "1010", 4, "*"),
		resultKey("select", "nr", "1010", 4, "*"),
		resultKey("select", "nas", "1110", 4, "*"),
		resultKey("select", "nas", "1010", 5, "*"),
		resultKey("select", "nas", "1010", 4, "Atom"),
	} {
		if other == base {
			t.Errorf("key collision: %s", other)
		}
	}
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fgbs/internal/features"
	"fgbs/internal/pipeline"
	"fgbs/internal/report"
	"fgbs/internal/stage"
)

// errorJSON is the uniform error body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody bounds a /v1/* query or /v1/jobs submission body.
// Both are a few hundred bytes of JSON; a body this size is a client
// bug, not a bigger request.
const maxRequestBody = 1 << 20

// decodeBody decodes the request body into v as exactly one JSON
// value: unknown fields, anything but whitespace after the value, and
// bodies over maxRequestBody are all errors.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// writeRaw writes a pre-encoded JSON body, segment by segment, tagging
// whether this request rendered it (the header the cache-hit tests and
// curious operators read) and whether it was computed from degraded or
// last-good data.
func writeRaw(w http.ResponseWriter, body [][]byte, cached, stale bool) {
	w.Header().Set("Content-Type", "application/json")
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if stale {
		w.Header().Set("X-Stale", "true")
	}
	w.WriteHeader(http.StatusOK)
	for _, seg := range body {
		w.Write(seg)
	}
}

// errEncoding marks a compute error raised while encoding the answer:
// a fault of the server (500), not of the query (400).
var errEncoding = errors.New("encoding response")

// encodeBody is the one-segment body of v.
func encodeBody(v any) ([][]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errEncoding, err)
	}
	return [][]byte{b}, nil
}

// markStale decorates a JSON object body with "stale": true — the
// in-band signal (alongside the X-Stale header) that the answer was
// computed from a degraded or retained last-good profile. The field is
// spliced in before the object's closing brace, so a stale body is the
// fresh body's bytes plus `,"stale":true` and its segments, which may
// be shared with Evals and the result cache, are never written to.
// Every body the handlers compute is a non-empty JSON object.
func markStale(body [][]byte) [][]byte {
	n := len(body) - 1
	last := body[n]
	return append(body[:n:n], last[:len(last)-1], staleClose)
}

// parseFeatureMask resolves the request's "features" field: a named
// preset or an explicit bit string.
func parseFeatureMask(s string) (features.Mask, error) {
	switch s {
	case "", "default":
		return features.DefaultMask(), nil
	case "paper":
		return features.PaperMask(), nil
	case "archindep":
		return features.ArchIndependentMask(), nil
	case "all":
		return features.AllMask(), nil
	default:
		m, err := features.ParseMask(s)
		if err != nil {
			return features.Mask{}, fmt.Errorf("features must be default, paper, archindep, all, or a %d-bit mask: %w", features.NumFeatures, err)
		}
		return m, nil
	}
}

// queryRequest is the shared body of the three POST endpoints; only
// /v1/evaluate reads Target.
type queryRequest struct {
	Suite    string `json:"suite"`
	K        int    `json:"k"`
	Features string `json:"features"`
	Target   string `json:"target"`
}

// decodeQuery parses and validates a POST body far enough to build a
// cache key. It writes the error response itself and reports ok.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (queryRequest, features.Mask, bool) {
	var req queryRequest
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return req, features.Mask{}, false
	}
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return req, features.Mask{}, false
	}
	if !s.validSuite(req.Suite) {
		writeError(w, http.StatusBadRequest, "unknown suite %q (valid: %s)", req.Suite, strings.Join(s.suiteSet, ", "))
		return req, features.Mask{}, false
	}
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, "k must be >= 0 (0 = elbow rule), got %d", req.K)
		return req, features.Mask{}, false
	}
	mask, err := parseFeatureMask(req.Features)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return req, features.Mask{}, false
	}
	return req, mask, true
}

// answer serves the query from the results store, a memory-only
// stage.Store of rendered bodies keyed by resultKey. compute returns
// the encoded body as segments, which the store keeps as they are:
// segments shared with a stage artifact (an Eval's encoding) are
// referenced, never copied. Concurrent identical queries render once:
// the first runs compute, the rest join it, and every request but the
// one that rendered reports X-Cache: hit. compute runs detached from
// the rendering request's cancellation, so a client that leaves
// mid-render never fails the requests that joined it; a render is
// milliseconds of CPU over stage artifacts.
//
// The profile is fetched first. A served clean profile is final, so
// an answer stored under the query's key always belongs to it.
// Graceful degradation: when the registry hands back a stale profile
// (a degraded build, served while its circuit is open or its recovery
// probe runs), the answer bypasses the results store — computed under
// the request's context, decorated with "stale": true plus an X-Stale
// header, and never stored — so a recovered rebuild becomes visible on
// the next request instead of hiding behind a stale entry. When the
// circuit is open and there is nothing to degrade onto, requests fail
// fast with 503 and a Retry-After hint instead of hammering a build
// that keeps failing.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, key string, compute func(context.Context, *pipeline.Staged) ([][]byte, error), suite string) {
	ctx := r.Context()
	st, stale, err := s.registry.Staged(ctx, suite)
	if err != nil {
		if ctx.Err() != nil {
			// The client is gone; the status is for the access log.
			writeError(w, http.StatusServiceUnavailable, "request canceled: %v", err)
			return
		}
		var open *circuitOpenError
		if errors.As(err, &open) {
			w.Header().Set("Retry-After", strconv.Itoa(int(open.retryIn.Seconds())+1))
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "profiling %s: %v", suite, err)
		return
	}
	var (
		body [][]byte
		out  stage.Outcome
	)
	if stale {
		body, err = compute(ctx, st)
	} else {
		var v any
		v, out, err = s.results.Resolve(ctx, "answer", stage.Key(key), nil, func(ctx context.Context) (any, error) {
			return compute(context.WithoutCancel(ctx), st)
		})
		body, _ = v.([][]byte)
	}
	if err != nil {
		if errors.Is(err, errEncoding) {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if ctx.Err() != nil {
			// A request canceled before or while waiting for its
			// answer is no fault of the query: the same 503 as a
			// canceled wait above.
			writeError(w, http.StatusServiceUnavailable, "request canceled: %v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if stale {
		body = markStale(body)
	}
	writeRaw(w, body, out.Cached, stale)
}

// resultKey is the results-store key of one query. target is "*" for
// queries spanning all targets (select, evaluate-all). The seed is
// constant within a server, so it is no part of the key. The key stays
// a plain string, not a digest: the results store has no byte tier,
// and the value plane treats keys as opaque (see stage.Store.Resolve).
func resultKey(kind, suite, mask string, k int, target string) string {
	return kind + "|" + suite + "|" + mask + "|" + strconv.Itoa(k) + "|" + target
}

func (s *Server) handleSubset(w http.ResponseWriter, r *http.Request) {
	req, mask, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	key := resultKey("subset", req.Suite, mask.String(), req.K, "*")
	s.answer(w, r, key, func(ctx context.Context, st *pipeline.Staged) ([][]byte, error) {
		sub, err := st.Subset(ctx, mask, req.K)
		if err != nil {
			return nil, err
		}
		sj := report.NewSubsetJSON(st.Profile(), sub)
		sj.Suite = req.Suite
		return encodeBody(sj)
	}, req.Suite)
}

// evalEncoder is report.EvalEncoder, a variable so tests can count
// and fail Eval encodes.
var evalEncoder = report.EvalEncoder

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	req, mask, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	target := req.Target
	if target == "" {
		target = "*"
	}
	key := resultKey("evaluate", req.Suite, mask.String(), req.K, target)
	s.answer(w, r, key, func(ctx context.Context, st *pipeline.Staged) ([][]byte, error) {
		prof := st.Profile()
		targets := prof.TargetIndices()
		if req.Target != "" {
			t, err := prof.TargetIndex(req.Target)
			if err != nil {
				var names []string
				for _, m := range prof.Targets {
					names = append(names, m.Name)
				}
				return nil, fmt.Errorf("unknown target %q (valid: %s)", req.Target, strings.Join(names, ", "))
			}
			targets = []int{t}
		}
		encode := evalEncoder(prof)
		sub, evals, err := st.Evaluate(ctx, mask, req.K, targets)
		if err != nil {
			return nil, err
		}
		// The body {"suite":…,"k":…,"evals":[…]} is assembled around
		// each Eval's own encoding, computed once per Eval and shared
		// with every later answer (and result-cache entry) it is in.
		suite, _ := json.Marshal(req.Suite) // a string always encodes
		head := make([]byte, 0, len(suite)+48)
		head = append(head, `{"suite":`...)
		head = append(head, suite...)
		head = append(head, `,"k":`...)
		head = strconv.AppendInt(head, int64(sub.K()), 10)
		body := make([][]byte, 1, 2*len(evals)+1)
		body[0] = append(head, `,"evals":[`...)
		for i, ev := range evals {
			b, err := ev.Encoded(encode)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", errEncoding, err)
			}
			if i > 0 {
				body = append(body, comma)
			}
			body = append(body, b)
		}
		return append(body, closeEvals), nil
	}, req.Suite)
}

// comma and closeEvals are the evaluate body's fixed segments;
// staleClose closes a body markStale decorates.
var (
	comma      = []byte(",")
	closeEvals = []byte("]}")
	staleClose = []byte(`,"stale":true}`)
)

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	req, mask, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	key := resultKey("select", req.Suite, mask.String(), req.K, "*")
	s.answer(w, r, key, func(ctx context.Context, st *pipeline.Staged) ([][]byte, error) {
		prof := st.Profile()
		sub, evals, err := st.Evaluate(ctx, mask, req.K, prof.TargetIndices())
		if err != nil {
			return nil, err
		}
		sj := report.NewSelectJSON(prof, sub, evals)
		sj.Suite = req.Suite
		return encodeBody(sj)
	}, req.Suite)
}

// suiteInfo is one entry of the /v1/suites listing.
type suiteInfo struct {
	Name string `json:"name"`
	// Loaded reports whether requests for the suite are answered from
	// a served profile, degraded or not.
	Loaded   bool     `json:"loaded"`
	Codelets int      `json:"codelets,omitempty"`
	Targets  []string `json:"targets,omitempty"`
	// Degraded reports whether the served profile carries failure
	// markers (measurements lost to permanent faults).
	Degraded bool `json:"degraded,omitempty"`
}

func (s *Server) handleSuites(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	loaded := s.registry.Loaded()
	out := struct {
		Suites []suiteInfo `json:"suites"`
	}{}
	for _, name := range s.suiteSet {
		info := suiteInfo{Name: name}
		if prof, ok := loaded[name]; ok {
			info.Loaded = true
			info.Codelets = prof.N()
			info.Degraded = prof.Degraded()
			for _, m := range prof.Targets {
				info.Targets = append(info.Targets, m.Name)
			}
		}
		out.Suites = append(out.Suites, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz reports liveness plus degradation: every non-closed
// circuit breaker and the experiment-job queue's saturation. The
// status code doubles as a load-balancer signal — 503 while any
// breaker is open or the job queue is saturated, 200 otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	infos, _ := s.breakers.snapshot()
	anyOpen := false
	for _, bi := range infos {
		if bi.State != "closed" {
			anyOpen = true
		}
	}
	queued, depth := s.jobs.Saturation()
	saturated := queued >= int64(depth)
	// A degraded tier does NOT turn the status code: the stage store
	// keeps serving around it (memory-only in the worst case), so the
	// node stays in rotation — the fields are for operators and
	// dashboards. "tiers" names every configured byte tier's state.
	tiers := make(map[string]string)
	for name, row := range s.registry.store.Stats().Tiers {
		tiers[name] = row.State
	}
	status := "ok"
	code := http.StatusOK
	if anyOpen || saturated {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"ok":            status == "ok",
		"uptimeSeconds": time.Since(s.started).Seconds(),
		"breakers":      infos,
		"tiers":         tiers,
		"jobQueue": map[string]any{
			"queued":    queued,
			"depth":     depth,
			"saturated": saturated,
		},
	})
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	endpoints, inFlight := s.metrics.snapshot()
	answers := s.results.Stats()
	infos, trips := s.breakers.snapshot()
	open := 0
	for _, bi := range infos {
		if bi.State != "closed" {
			open++
		}
	}
	body := map[string]any{
		"uptimeSeconds": time.Since(s.started).Seconds(),
		"inFlight":      inFlight,
		"endpoints":     endpoints,
		// A lookup is a hit when the answer was stored or rendering
		// (joined), so hits + misses still counts lookups.
		"resultCache": map[string]any{
			"hits":     answers.Total.Hits + answers.Total.Joined,
			"misses":   answers.Total.Misses,
			"size":     answers.Entries,
			"capacity": answers.Capacity,
		},
		"registry": map[string]any{
			"builds":         s.registry.builds.Load(),
			"coalesced":      s.registry.coalesced.Load(),
			"diskLoads":      s.registry.diskLoads.Load(),
			"peerLoads":      s.registry.peerLoads.Load(),
			"inFlightBuilds": s.registry.inFlightBuilds(),
			"staleServes":    s.registry.staleHits.Load(),
		},
		"stages": s.registry.store.Stats(),
		"breakers": map[string]any{
			"open":   open,
			"trips":  trips,
			"states": infos,
		},
		"jobs": s.jobs.Stats(),
	}
	if s.cfg.MeasureStats != nil {
		body["measure"] = s.cfg.MeasureStats()
	}
	if s.cfg.FaultStats != nil {
		body["faults"] = s.cfg.FaultStats()
	}
	writeJSON(w, http.StatusOK, body)
}

// handleArtifact serves one stage artifact's framed bytes — the
// peer-fetch endpoint a cold node's HTTPBackend calls before
// recomputing. The body is the at-rest frame (header + payload)
// verbatim, so the fetching node verifies integrity itself; the read
// runs through this node's disk tier, so a tripped disk breaker
// degrades the endpoint to 404s instead of error storms. A key the
// disk tier does not hold is a plain 404 — the peer falls through to
// compute.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := stage.Key(r.PathValue("key"))
	if !key.Valid() {
		writeError(w, http.StatusBadRequest, "artifact key must be 64 lowercase hex characters")
		return
	}
	data, err := s.registry.store.FetchFramed(r.Context(), key)
	if err != nil {
		writeError(w, http.StatusNotFound, "artifact %s not available on this node", key)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleArtifactIndex lists the artifact keys this node can serve over
// /v1/artifacts/{key} — every artifact its disk tier holds, the index
// a peer (or an operator) enumerates.
func (s *Server) handleArtifactIndex(w http.ResponseWriter, r *http.Request) {
	keys := s.registry.store.Keys()
	out := struct {
		Count int      `json:"count"`
		Keys  []string `json:"keys"`
	}{Count: len(keys), Keys: make([]string, 0, len(keys))}
	for _, k := range keys {
		out.Keys = append(out.Keys, k.String())
	}
	writeJSON(w, http.StatusOK, out)
}

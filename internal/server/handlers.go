package server

import (
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

// writeRaw replays pre-encoded JSON, tagging whether it came from the
// result cache (the header the cache-hit tests and curious operators
// read) and whether it was computed from degraded or last-good data.
func writeRaw(w http.ResponseWriter, body []byte, cached, stale bool) {
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
	w.Write(body)
}

// markStale decorates a JSON object body with "stale": true — the
// in-band signal (alongside the X-Stale header) that the answer was
// computed from a degraded or retained last-good profile. A body that
// is not a JSON object passes through unchanged.
func markStale(body []byte) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	m["stale"] = true
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
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

// answer serves the query from the result cache or computes, caches
// and serves it. compute returns the response value to encode.
//
// Graceful degradation: when the registry hands back a stale profile
// (degraded build, or last-good data behind an open circuit), the
// response is decorated with "stale": true plus an X-Stale header and
// deliberately NOT cached — a recovered rebuild must become visible on
// the next request, not hide behind a stale LRU entry. When the
// circuit is open and there is nothing to degrade onto, requests fail
// fast with 503 and a Retry-After hint instead of hammering a build
// that keeps failing.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, key string, compute func(*pipeline.Staged) (any, error), suite string) {
	if body, ok := s.results.Get(key); ok {
		writeRaw(w, body, true, false)
		return
	}
	st, stale, err := s.registry.Staged(r.Context(), suite)
	if err != nil {
		if r.Context().Err() != nil {
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
	v, err := compute(st)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	if stale {
		writeRaw(w, markStale(body), false, true)
		return
	}
	s.results.Put(key, body)
	writeRaw(w, body, false, false)
}

func (s *Server) handleSubset(w http.ResponseWriter, r *http.Request) {
	req, mask, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	key := resultKey("subset", req.Suite, mask.String(), req.K, "*", s.cfg.Seed)
	s.answer(w, r, key, func(st *pipeline.Staged) (any, error) {
		sub, err := st.Subset(r.Context(), mask, req.K)
		if err != nil {
			return nil, err
		}
		sj := report.NewSubsetJSON(st.Profile(), sub)
		sj.Suite = req.Suite
		return sj, nil
	}, req.Suite)
}

// evaluateResponse wraps the per-target evaluations of one query.
type evaluateResponse struct {
	Suite string             `json:"suite"`
	K     int                `json:"k"`
	Evals []*report.EvalJSON `json:"evals"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	req, mask, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	target := req.Target
	if target == "" {
		target = "*"
	}
	key := resultKey("evaluate", req.Suite, mask.String(), req.K, target, s.cfg.Seed)
	s.answer(w, r, key, func(st *pipeline.Staged) (any, error) {
		prof := st.Profile()
		sub, err := st.Subset(r.Context(), mask, req.K)
		if err != nil {
			return nil, err
		}
		targets := make([]int, 0, len(prof.Targets))
		if req.Target == "" {
			for t := range prof.Targets {
				targets = append(targets, t)
			}
		} else {
			t, err := prof.TargetIndex(req.Target)
			if err != nil {
				var names []string
				for _, m := range prof.Targets {
					names = append(names, m.Name)
				}
				return nil, fmt.Errorf("unknown target %q (valid: %s)", req.Target, strings.Join(names, ", "))
			}
			targets = append(targets, t)
		}
		resp := &evaluateResponse{Suite: req.Suite, K: sub.K()}
		for _, t := range targets {
			_, ev, err := st.Evaluate(r.Context(), mask, req.K, t)
			if err != nil {
				return nil, err
			}
			resp.Evals = append(resp.Evals, report.NewEvalJSON(prof, ev))
		}
		return resp, nil
	}, req.Suite)
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	req, mask, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	key := resultKey("select", req.Suite, mask.String(), req.K, "*", s.cfg.Seed)
	s.answer(w, r, key, func(st *pipeline.Staged) (any, error) {
		prof := st.Profile()
		sub, err := st.Subset(r.Context(), mask, req.K)
		if err != nil {
			return nil, err
		}
		var evals []*pipeline.Eval
		for t := range prof.Targets {
			_, ev, err := st.Evaluate(r.Context(), mask, req.K, t)
			if err != nil {
				return nil, err
			}
			evals = append(evals, ev)
		}
		sj := report.NewSelectJSON(prof, sub, evals)
		sj.Suite = req.Suite
		return sj, nil
	}, req.Suite)
}

// suiteInfo is one entry of the /v1/suites listing.
type suiteInfo struct {
	Name string `json:"name"`
	// Loaded reports whether the suite's profile is resident.
	Loaded   bool     `json:"loaded"`
	Codelets int      `json:"codelets,omitempty"`
	Targets  []string `json:"targets,omitempty"`
	// Degraded reports whether the resident profile carries failure
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
	hits, misses, size := s.results.Stats()
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
		"resultCache": map[string]any{
			"hits":     hits,
			"misses":   misses,
			"size":     size,
			"capacity": s.cfg.ResultCacheSize,
		},
		"registry": map[string]any{
			"builds":         s.registry.builds.Load(),
			"coalesced":      s.registry.coalesced.Load(),
			"diskLoads":      s.registry.diskLoads.Load(),
			"peerLoads":      s.registry.peerLoads.Load(),
			"inFlightBuilds": s.registry.building.Load(),
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

// validArtifactKey reports whether key has the canonical stage.Key
// shape: 64 lowercase hex characters (a SHA-256 digest).
func validArtifactKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleArtifact serves one stage artifact's framed bytes — the
// peer-fetch endpoint a cold node's HTTPBackend calls before
// recomputing. The body is the at-rest frame (header + payload)
// verbatim, so the fetching node verifies integrity itself; the read
// runs through this node's tier decorators, so a tripped disk breaker
// degrades the endpoint to 404s instead of error storms. Keys this
// node has not resolved are plain 404s — the peer falls through to
// compute.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validArtifactKey(key) {
		writeError(w, http.StatusBadRequest, "artifact key must be 64 lowercase hex characters")
		return
	}
	data, err := s.registry.store.FetchFramed(r.Context(), stage.Key(key))
	if err != nil {
		if errors.Is(err, stage.ErrNotFound) {
			writeError(w, http.StatusNotFound, "artifact %s not available on this node", key)
			return
		}
		writeError(w, http.StatusInternalServerError, "fetching artifact %s: %v", key, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleArtifactIndex lists the artifact keys this node can serve over
// /v1/artifacts/{key} — the index a peer (or an operator) enumerates.
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

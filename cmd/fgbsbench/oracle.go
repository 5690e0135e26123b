package main

import (
	"context"
	"encoding/json"
	"fmt"

	"fgbs/internal/corpus"
	"fgbs/internal/features"
	"fgbs/internal/ir"
	"fgbs/internal/pipeline"
	"fgbs/internal/report"
)

// suiteName is the name the benchmark corpus is served under.
const suiteName = "bench"

// corpusSeed fixes the generated codelets. How much simulator work a
// cold build does depends on which codelets it profiles (up to 40%
// apart between corpus seeds), and every run must do the same amount
// of work for its timings to be comparable. So -seed does not pick
// the corpus: it seeds profiling (datasets and measurement noise,
// hence every answer byte) and the order clients visit their queries.
const corpusSeed = 20140215

// benchCorpus generates the benchmark's 40 codelets: 24 standalone
// codelets cycling through every family plus 2 composed applications
// of 8 codelets over shared arrays. A cold build of it takes about 2s
// on 2 cores.
func benchCorpus() ([]*ir.Program, error) {
	progs, err := corpus.Mixed(corpusSeed, 24, 0)
	if err != nil {
		return nil, fmt.Errorf("generating codelets: %w", err)
	}
	apps, err := corpus.ComposeApps(corpusSeed, 2, 8, 0)
	if err != nil {
		return nil, fmt.Errorf("composing applications: %w", err)
	}
	return append(progs, apps...), nil
}

// query is one POST to /v1/subset, /v1/select or /v1/evaluate.
type query struct {
	endpoint string // "/v1/subset", "/v1/select" or "/v1/evaluate"
	k        int    // 0 = elbow rule
	features string // "default" or "paper"
	target   string // evaluate only; "" = every target
}

func (q query) payload() []byte {
	body := map[string]any{"suite": suiteName}
	if q.k != 0 {
		body["k"] = q.k
	}
	if q.features != "" {
		body["features"] = q.features
	}
	if q.target != "" {
		body["target"] = q.target
	}
	b, _ := json.Marshal(body) // a map of strings and ints always encodes
	return b
}

func (q query) String() string {
	return fmt.Sprintf("%s k=%d features=%s target=%q", q.endpoint, q.k, q.features, q.target)
}

// hotQueries is warm-hot's working set: 32 queries, well inside the
// result cache's 256 entries, so after the prefill every answer is a
// cache replay.
func hotQueries() []query {
	var qs []query
	for _, ep := range []string{"/v1/subset", "/v1/select"} {
		for k := 2; k <= 9; k++ {
			for _, f := range []string{"default", "paper"} {
				qs = append(qs, query{endpoint: ep, k: k, features: f})
			}
		}
	}
	return qs
}

// scanQueries is warm-scan's working set: K from 2 to min(n, 41), both
// masks, six query shapes. For the 40-codelet corpus that is 468
// distinct queries, more than the result cache's 256 entries, so the
// LRU never hits; their 318 stage artifacts fit the store's 512, so
// every stage resolve does.
func scanQueries(n int, targets []string) []query {
	var qs []query
	for k := 2; k <= n && k <= 41; k++ {
		for _, f := range []string{"default", "paper"} {
			qs = append(qs,
				query{endpoint: "/v1/subset", k: k, features: f},
				query{endpoint: "/v1/select", k: k, features: f},
				query{endpoint: "/v1/evaluate", k: k, features: f})
			for _, t := range targets {
				qs = append(qs, query{endpoint: "/v1/evaluate", k: k, features: f, target: t})
			}
		}
	}
	return qs
}

// evaluateBody mirrors the server's /v1/evaluate response shape.
type evaluateBody struct {
	Suite string             `json:"suite"`
	K     int                `json:"k"`
	Evals []*report.EvalJSON `json:"evals"`
}

// oracle renders the answer every query must get, from the monolithic
// pipeline (pipeline.NewProfileContext, Profile.Subset/Evaluate/
// SweepKContext) and the report package's wire types. It is built off
// the clock and used only by the benchmark goroutine that owns it.
type oracle struct {
	prof  *pipeline.Profile
	subs  map[subsetKey]*pipeline.Subset
	evals map[evalKey]*pipeline.Eval
	memo  map[query][]byte
}

type subsetKey struct {
	mask string
	k    int
}

type evalKey struct {
	subsetKey
	t int
}

func newOracle(ctx context.Context, progs []*ir.Program, seed uint64) (*oracle, error) {
	prof, err := pipeline.NewProfileContext(ctx, progs, pipeline.Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("oracle profile: %w", err)
	}
	return &oracle{
		prof:  prof,
		subs:  make(map[subsetKey]*pipeline.Subset),
		evals: make(map[evalKey]*pipeline.Eval),
		memo:  make(map[query][]byte),
	}, nil
}

func maskOf(name string) features.Mask {
	if name == "paper" {
		return features.PaperMask()
	}
	return features.DefaultMask()
}

func (o *oracle) targetNames() []string {
	var names []string
	for _, m := range o.prof.Targets {
		names = append(names, m.Name)
	}
	return names
}

func (o *oracle) subset(mask string, k int) (*pipeline.Subset, error) {
	key := subsetKey{mask, k}
	if sub, ok := o.subs[key]; ok {
		return sub, nil
	}
	sub, err := o.prof.Subset(maskOf(mask), k)
	if err != nil {
		return nil, err
	}
	o.subs[key] = sub
	return sub, nil
}

func (o *oracle) evaluate(mask string, k, t int) (*pipeline.Eval, error) {
	key := evalKey{subsetKey{mask, k}, t}
	if ev, ok := o.evals[key]; ok {
		return ev, nil
	}
	sub, err := o.subset(mask, k)
	if err != nil {
		return nil, err
	}
	ev, err := o.prof.Evaluate(sub, t)
	if err != nil {
		return nil, err
	}
	o.evals[key] = ev
	return ev, nil
}

// expect returns the exact body the server must answer q with.
func (o *oracle) expect(q query) ([]byte, error) {
	if b, ok := o.memo[q]; ok {
		return b, nil
	}
	v, err := o.render(q)
	if err != nil {
		return nil, fmt.Errorf("oracle %v: %w", q, err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("oracle %v: %w", q, err)
	}
	o.memo[q] = b
	return b, nil
}

func (o *oracle) render(q query) (any, error) {
	sub, err := o.subset(q.features, q.k)
	if err != nil {
		return nil, err
	}
	switch q.endpoint {
	case "/v1/subset":
		sj := report.NewSubsetJSON(o.prof, sub)
		sj.Suite = suiteName
		return sj, nil
	case "/v1/select":
		var evals []*pipeline.Eval
		for t := range o.prof.Targets {
			ev, err := o.evaluate(q.features, q.k, t)
			if err != nil {
				return nil, err
			}
			evals = append(evals, ev)
		}
		sj := report.NewSelectJSON(o.prof, sub, evals)
		sj.Suite = suiteName
		return sj, nil
	case "/v1/evaluate":
		body := &evaluateBody{Suite: suiteName, K: sub.K()}
		for t, m := range o.prof.Targets {
			if q.target != "" && q.target != m.Name {
				continue
			}
			ev, err := o.evaluate(q.features, q.k, t)
			if err != nil {
				return nil, err
			}
			body.Evals = append(body.Evals, report.NewEvalJSON(o.prof, ev))
		}
		return body, nil
	}
	return nil, fmt.Errorf("unknown endpoint %q", q.endpoint)
}

// sweep returns the exact body GET /v1/jobs/{id}/result must answer
// for a default sweep job: the server encodes job results with a
// json.Encoder, hence the trailing newline.
func (o *oracle) sweep(ctx context.Context, kmin, kmax int) ([]byte, error) {
	mask := features.DefaultMask()
	pts, err := o.prof.SweepKContext(ctx, mask, kmin, kmax)
	if err != nil {
		return nil, fmt.Errorf("oracle sweep: %w", err)
	}
	sj := report.NewSweepJSON(o.prof, pts)
	sj.Suite = suiteName
	sj.Mask = mask.String()
	sj.KMin, sj.KMax = kmin, kmax
	b, err := json.Marshal(sj)
	if err != nil {
		return nil, fmt.Errorf("oracle sweep: %w", err)
	}
	return append(b, '\n'), nil
}

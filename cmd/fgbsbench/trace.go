package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fgbs/internal/fault"
	"fgbs/internal/ir"
	"fgbs/internal/sim"
)

// span is one traced interval. Times are nanoseconds since the phase
// began. Spans of one cold or restart iteration share Iter (-1 marks
// set-up work) and point at the iteration's root span through Parent
// (-1 for a root). Handler spans carry the response status and X-Cache
// header; Tag names the endpoint, the simulator mode or the artifact.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
	Tag    string `json:"tag,omitempty"`
	Status int    `json:"status,omitempty"`
	Cache  string `json:"cache,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans at the benchmark's own boundaries: each handler
// call of a cold or restart iteration, each simulator call (through
// timedSim, the traced server's Measurer) and each artifact the warm
// peer serves (through peerHandler). Spans stay in memory until the
// phase ends; timed warm requests are kept as samples instead (see
// client) and only become spans when written out. A nil *tracer
// records nothing, which is the untraced run.
type tracer struct {
	epoch time.Time
	root  atomic.Int64 // index of the open iteration's root span, or -1
	iter  atomic.Int64 // id of the open iteration, or -1

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(epoch time.Time) *tracer {
	t := &tracer{epoch: epoch}
	t.root.Store(-1)
	t.iter.Store(-1)
	return t
}

func (t *tracer) clock() int64 { return int64(now().Sub(t.epoch)) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens an iteration's root span; spans recorded until end are
// its children.
func (t *tracer) begin(name string, iter int, start int64) {
	if t == nil {
		return
	}
	idx := t.add(span{Name: name, Start: start, Parent: -1, Iter: iter})
	t.iter.Store(int64(iter))
	t.root.Store(int64(idx))
}

// end closes the open root span.
func (t *tracer) end(end int64) {
	if t == nil {
		return
	}
	idx := int(t.root.Load())
	t.root.Store(-1)
	t.iter.Store(-1)
	if idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].End = end
	t.mu.Unlock()
}

// child records a span under the open iteration, if any.
func (t *tracer) child(s span) {
	if t == nil {
		return
	}
	s.Parent, s.Iter = int(t.root.Load()), int(t.iter.Load())
	t.add(s)
}

// handler records one handler call of an iteration, tagged with its
// endpoint, status and X-Cache header.
func (t *tracer) handler(c *call, start, end int64) {
	if t == nil {
		return
	}
	t.child(span{Name: "handler", Tag: c.req.Method + " " + c.req.URL.Path, Start: start, End: end,
		Status: c.rec.status, Cache: c.rec.hdr.Get("X-Cache"), Bytes: int64(c.rec.body.Len())})
}

// take returns the recorded spans and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	t.spans = nil
	return spans
}

// timedSim is the traced server's fault.Measurer: the clean simulator
// with a span around every call. It changes no result byte — the
// oracle check proves that on every traced answer.
type timedSim struct{ tr *tracer }

// timedSimKey names timedSim in stage keys (server.Config.MeasurerKey).
const timedSimKey = "fgbsbench-timed-sim"

func (m timedSim) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, o sim.Options) (*sim.Measurement, error) {
	start := m.tr.clock()
	meas, err := fault.Sim{}.Measure(ctx, p, c, o)
	m.tr.child(span{Name: "sim", Tag: o.Mode.String(), Start: start, End: m.tr.clock()})
	return meas, err
}

// peerHandler wraps the warm peer's handler with a span per artifact
// served, sized by the bytes written.
func (t *tracer) peerHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.clock()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.child(span{Name: "peer.serve", Tag: r.URL.Path, Start: start, End: t.clock(), Bytes: cw.n})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// covered returns how much of [lo, hi) the spans cover, counting
// overlaps once: the union of their clipped intervals.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanLine is one line of the -spans file.
type spanLine struct {
	Workload string `json:"workload"`
	span
}

// writeSpans appends a traced phase's spans to w as JSON lines: the
// tracer's spans, then one handler span per timed warm request, a
// child of the warm window's span. A warm span carries status 200 and
// the body size only when its answer matched the oracle.
func writeSpans(w io.Writer, workload string, spans []span, clients []*client) error {
	window := slices.IndexFunc(spans, func(s span) bool { return s.Name == "warm.window" })
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(spanLine{workload, s}); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, c := range clients {
		for _, s := range c.samples {
			line := spanLine{workload, span{Name: "handler", Tag: "POST " + c.calls[s.q].req.URL.Path,
				Start: s.start, End: s.end(), Parent: window, Iter: 0, Cache: "miss"}}
			if s.hit {
				line.Cache = "hit"
			}
			if s.ok {
				line.Status, line.Bytes = http.StatusOK, int64(len(c.want[s.q]))
			}
			if err := enc.Encode(line); err != nil {
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	return nil
}

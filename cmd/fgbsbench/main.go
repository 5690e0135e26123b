// Command fgbsbench is the end-to-end benchmark of fgbsd. It drives
// the real server.Handler in process — no sockets except the one peer
// hop — over a generated 40-codelet corpus, runs one or more of four
// workloads (cold, warm-hot, warm-scan, restart), checks every answer
// byte for byte against the monolithic pipeline, and prints each
// end-to-end metric by name with its unit and sample count. With
// -trace 1 it runs the workload a second time with spans recorded at
// its own boundaries and prints the per-layer metrics and the tracing
// overhead. README.md describes the workloads and metrics.
//
// Usage:
//
//	go run . [-workload re] [-seed n] [-seconds s] [-trace 0|1] [-spans file]
//
// Human-readable tables go to standard error. Standard output gets one
// JSON line per workload with the keys correct, attempted, failed and
// metrics: the end-to-end metrics, or with -trace 1 the per-layer
// ones. The exit status is 0 when every answer was right, 1 when any
// answer was wrong or failed, and 2 on a usage error.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"time"

	"fgbs/internal/ir"
)

func main() {
	os.Exit(run(context.Background(), os.Stdout, os.Stderr, os.Args[1:]))
}

// config is what every phase of a run shares.
type config struct {
	seed    uint64
	seconds float64   // timed window per phase
	reps    int       // set-ups per phase; setup_s is their median
	spans   io.Writer // where traced phases append their spans; nil = nowhere
	// programs generates the corpus; each call returns fresh programs.
	programs func() ([]*ir.Program, error)
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func run(ctx context.Context, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("fgbsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pattern := fs.String("workload", ".", "regexp selecting workloads: cold, warm-hot, warm-scan, restart")
	seed := fs.Uint64("seed", 20140215, "seed for profiling and the query order")
	seconds := fs.Float64("seconds", 10, "timed window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the traced phase's spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	re, err := regexp.Compile(*pattern)
	var selected []workload
	if err == nil {
		for _, w := range workloads {
			if re.MatchString(w.name) {
				selected = append(selected, w)
			}
		}
	}
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "fgbsbench: -workload: %v\n", err)
		return 2
	case len(selected) == 0:
		fmt.Fprintf(stderr, "fgbsbench: -workload %q matches none of cold, warm-hot, warm-scan, restart\n", *pattern)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "fgbsbench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "fgbsbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "fgbsbench: -seconds must be > 0, got %g\n", *seconds)
		return 2
	case *spans != "" && *trace != 1:
		fmt.Fprintln(stderr, "fgbsbench: -spans needs -trace 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, reps: 3, programs: benchCorpus}
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			fmt.Fprintf(stderr, "fgbsbench: -spans: %v\n", err)
			return 2
		}
		defer f.Close() // error paths only; the success path checks Close below
		w := bufio.NewWriter(f)
		cfg.spans = w
		code := runAll(ctx, cfg, selected, *trace == 1, stdout, stderr)
		if err := w.Flush(); err != nil {
			fmt.Fprintf(stderr, "fgbsbench: writing spans: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "fgbsbench: writing spans: %v\n", err)
			return 1
		}
		return code
	}
	return runAll(ctx, cfg, selected, *trace == 1, stdout, stderr)
}

// runAll runs the selected workloads in order, printing each one's
// JSON line as it finishes.
func runAll(ctx context.Context, cfg config, selected []workload, traced bool, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range selected {
		res, err := runWorkload(ctx, cfg, w, traced, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "fgbsbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(stderr, "fgbsbench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// result is the JSON line a workload prints.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs w untraced and, when traced, once more with the
// tracer, and reports it.
func runWorkload(ctx context.Context, cfg config, w workload, traced bool, log io.Writer) (*result, error) {
	plain, err := runPhase(ctx, cfg, w, false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "\nfgbsbench: %s (%s)\nseed %d, %gs window, untraced\n", w.name, w.why, cfg.seed, cfg.seconds)
	plain.report(log)
	if !traced {
		return resultOf(plain, nil), nil
	}
	tp, err := runPhase(ctx, cfg, w, true)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "\nfgbsbench: %s, traced\n", w.name)
	tp.report(log)
	printOverhead(log, plain.e2e, tp.e2e)
	fmt.Fprintf(log, "\nfgbsbench: %s, per-layer metrics (traced)\n", w.name)
	printLayers(log, tp.layers)
	return resultOf(plain, tp), nil
}

// resultOf is a workload's JSON line: the untraced phase's end-to-end
// metrics, or, given a traced phase, its per-layer metrics. The
// tallies cover every phase run.
func resultOf(plain, traced *phase) *result {
	res := &result{Attempted: plain.attempted, Failed: plain.failed}
	out, defs := plain.e2e, e2eDefs
	if traced != nil {
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		out, defs = traced.layers, layerDefs
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		// A metric the layers did not produce (n/a in the table) reads 0.
		res.Metrics[d.name] = jsonMetric{Value: out[d.name].v, Unit: d.unit}
	}
	return res
}

// phase is one run of one workload, untraced or traced, with its own
// oracle, servers and directories.
type phase struct {
	cfg      config
	workload string
	ctx      context.Context
	dir      string
	epoch    time.Time
	tr       *tracer // nil when untraced
	o        *oracle
	// ref times the reference operations during cold iterations and
	// between restarts; each warm client has its own. refMallocs and
	// refBytes are what one reference operation allocates.
	ref                  *refMeter
	refMallocs, refBytes float64

	attempted int      // checked operations, set-up included
	failed    int      // checked operations that went wrong
	notes     []string // the first few failures

	setups    []float64   // set-up durations, s
	lat       []float64   // timed operation latencies, ms (cold, restart)
	slices    [][]float64 // timed latencies by window slice, ms (warm)
	sliceNote string

	winStart   int64
	ops        int
	wall       int64
	mem0, mem1 runtime.MemStats

	// Traced-phase observations.
	clients          []*client          // warm clients and their timed samples
	before           map[string]float64 // /metricz before the window (warm)
	counters         map[string]float64 // /metricz deltas summed over the window
	diskBytes        []float64
	jobWait, jobRun  []float64 // cold sweep job timings, ms
	diskLat, peerLat []float64 // restart latencies by tier, ms

	e2e, layers metrics
}

func runPhase(ctx context.Context, cfg config, w workload, traced bool) (*phase, error) {
	p, err := newPhase(ctx, cfg, w, traced)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)
	if err := w.run(p); err != nil {
		return nil, err
	}
	return p, nil
}

// newPhase creates the phase's directory, which the caller removes,
// and builds its oracle.
func newPhase(ctx context.Context, cfg config, w workload, traced bool) (*phase, error) {
	dir, err := os.MkdirTemp("", "fgbsbench-*")
	if err != nil {
		return nil, fmt.Errorf("creating work dir: %w", err)
	}
	p := &phase{cfg: cfg, workload: w.name, ctx: ctx, dir: dir, epoch: now(), ref: newRefMeter(),
		counters: make(map[string]float64)}
	p.refMallocs, p.refBytes = refAllocs()
	if traced {
		p.tr = newTracer(p.epoch)
	}
	progs, err := cfg.programs()
	if err == nil {
		p.o, err = newOracle(ctx, progs, cfg.seed)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return p, nil
}

func (p *phase) clock() int64 { return int64(now().Sub(p.epoch)) }

// record counts n checked operations, failed of which went wrong.
// Only the benchmark's main goroutine calls it, after any clients of
// the operations have been joined.
func (p *phase) record(n, failed int, note func() string) {
	p.attempted += n
	p.failed += failed
	if failed > 0 && len(p.notes) < 5 {
		p.notes = append(p.notes, note())
	}
}

// openWindow starts the timed window.
func (p *phase) openWindow() {
	runtime.ReadMemStats(&p.mem0)
	p.winStart = p.clock()
}

func (p *phase) windowOpen() bool { return p.clock()-p.winStart < int64(p.cfg.window()) }

// closeWindow ends the timed window after ops operations.
func (p *phase) closeWindow(ops int) {
	p.wall = p.clock() - p.winStart
	runtime.ReadMemStats(&p.mem1)
	p.ops = ops
}

// observeBefore snapshots a long-lived server's counters before the
// window (traced only).
func (p *phase) observeBefore(ctx context.Context, n *node) error {
	if p.tr == nil {
		return nil
	}
	var err error
	p.before, err = metricz(ctx, n.srv.Handler())
	return err
}

// observe adds a server's counters since observeBefore (or since it
// started) and its directory's artifact bytes to the traced phase's
// totals.
func (p *phase) observe(ctx context.Context, n *node) error {
	if p.tr == nil {
		return nil
	}
	after, err := metricz(ctx, n.srv.Handler())
	if err != nil {
		return err
	}
	for k, v := range after {
		p.counters[k] += v - p.before[k]
	}
	p.before = nil
	b, err := dirBytes(n.dir)
	if err != nil {
		return err
	}
	p.diskBytes = append(p.diskBytes, float64(b))
	return nil
}

// metricz reads /metricz flattened to dotted paths of its numbers.
func metricz(ctx context.Context, h http.Handler) (map[string]float64, error) {
	c, err := newCall(ctx, http.MethodGet, "/metricz", nil)
	if err != nil {
		return nil, err
	}
	c.do(h)
	var v any
	if c.rec.status != http.StatusOK || json.Unmarshal(c.rec.body.Bytes(), &v) != nil {
		return nil, errors.New(c.describe())
	}
	out := make(map[string]float64)
	flatten("", v, out)
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			if prefix != "" {
				k = prefix + "." + k
			}
			flatten(k, e, out)
		}
	case float64:
		out[prefix] = x
	}
}

// finish computes the phase's metrics, writes its spans, then releases
// the benchmark's own buffers and reads the live heap while the
// workload's servers are still up.
func (p *phase) finish() error {
	p.e2e = p.e2eMetrics()
	if p.tr != nil {
		spans := p.tr.take()
		p.layers = p.layerMetrics(spans)
		if p.cfg.spans != nil {
			if err := writeSpans(p.cfg.spans, p.workload, spans, p.clients); err != nil {
				return err
			}
		}
	}
	p.o, p.ref, p.clients, p.lat, p.slices = nil, nil, nil, nil, nil
	p.e2e["heap_mb"] = value{v: heapMB(), n: 1}
	return nil
}

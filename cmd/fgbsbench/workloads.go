package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fgbs/internal/ir"
	"fgbs/internal/jobs"
	"fgbs/internal/report"
	"fgbs/internal/rng"
	"fgbs/internal/server"
)

// workload is one traffic mix. Every workload builds its servers from
// the same generated corpus, checks every answer against the oracle,
// and records one latency per operation: a cold iteration, a warm
// request or a restart.
type workload struct {
	name string
	why  string
	run  func(*phase) error
}

var workloads = []workload{
	{"cold", "the expensive step: a fresh server profiles the corpus while select, subset and a sweep job coalesce onto its one build", runCold},
	{"warm-hot", "32 repeated queries: every answer is a result-cache replay, with no stage or simulator work", runWarmHot},
	{"warm-scan", "468 distinct queries, more than the result cache holds: the cache always misses and every stage resolve hits", runWarmScan},
	{"restart", "new servers answer a first select from a warm disk dir or a warm peer: the tiers' read side, no simulator", runRestart},
}

const (
	// clients is the closed-loop client count of the warm workloads.
	// Each handler runs on its client's goroutine, so with profiling
	// already done the load stays within the 2 cores the benchmark
	// is sized for.
	clients = 2
	// pollEvery paces the cold sweep job's status polls.
	pollEvery = time.Millisecond
	// sweepKMin and sweepKMax are the server's sweep-job defaults,
	// which the cold workload's job request relies on.
	sweepKMin, sweepKMax = 2, 24
)

// node is one server and the profile directory it owns.
type node struct {
	srv *server.Server
	dir string
}

func (n *node) close() {
	n.srv.Close()
	os.RemoveAll(n.dir)
}

// newNode starts a server on a fresh, empty profile directory.
func (p *phase) newNode(progs []*ir.Program) (*node, error) {
	dir, err := os.MkdirTemp(p.dir, "node-*")
	if err != nil {
		return nil, fmt.Errorf("creating profile dir: %w", err)
	}
	return &node{srv: server.New(p.serverConfig(dir, nil, progs)), dir: dir}, nil
}

// serverConfig is the daemon's default configuration (fgbsd
// -profiledir dir [-peers ...]) over the benchmark corpus. The traced
// phase routes simulator calls through timedSim.
func (p *phase) serverConfig(dir string, peers []string, progs []*ir.Program) server.Config {
	cfg := server.Config{
		Seed:       p.cfg.seed,
		ProfileDir: dir,
		Peers:      peers,
		SuiteNames: []string{suiteName},
		Programs:   func(string) ([]*ir.Program, error) { return progs, nil },
	}
	if p.tr != nil {
		cfg.Measurer = timedSim{p.tr}
		cfg.MeasurerKey = timedSimKey
	}
	return cfg
}

// exchange serves c through h, timing it and, when traced, recording
// its handler span.
func (p *phase) exchange(h http.Handler, c *call) (start, end int64) {
	start = p.clock()
	c.do(h)
	end = p.clock()
	p.tr.handler(c, start, end)
	return start, end
}

// check counts one checked operation.
func (p *phase) check(ok bool, format string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	p.record(1, failed, func() string { return fmt.Sprintf(format, args...) })
}

// coldWant holds the three answers of a cold iteration.
type coldWant struct{ sel, sub, sweep []byte }

func runCold(p *phase) error {
	ctx := p.ctx
	var w coldWant
	var err error
	if w.sel, err = p.o.expect(query{endpoint: "/v1/select"}); err != nil {
		return err
	}
	if w.sub, err = p.o.expect(query{endpoint: "/v1/subset"}); err != nil {
		return err
	}
	if w.sweep, err = p.o.sweep(ctx, sweepKMin, sweepKMax); err != nil {
		return err
	}
	// Set-up: generate the inputs, then one untimed cold iteration.
	var progs []*ir.Program
	for rep := 0; rep < p.cfg.reps; rep++ {
		t0 := now()
		if progs, err = p.cfg.programs(); err != nil {
			return err
		}
		n, _, err := p.coldIteration(ctx, progs, w, -1)
		if err != nil {
			return err
		}
		p.setups = append(p.setups, now().Sub(t0).Seconds())
		n.close()
	}
	var last *node
	p.openWindow()
	for iter := 0; iter == 0 || p.windowOpen(); iter++ {
		if last != nil {
			last.close()
		}
		n, lat, err := p.coldIteration(ctx, progs, w, iter)
		if err != nil {
			return err
		}
		last = n
		p.lat = append(p.lat, lat)
	}
	p.closeWindow(len(p.lat))
	defer last.close()
	return p.finish()
}

// coldIteration starts a server on an empty directory and, at one
// instant, sends /v1/select from one client and a sweep job plus
// /v1/subset from the other; the subset and the sweep join the
// select's profiling build. Meanwhile, in a timed iteration, the
// calling goroutine runs reference operations. It returns the
// still-running node and the time until the last of the three answers
// arrived, in ms. iter < 0 marks a set-up iteration.
func (p *phase) coldIteration(ctx context.Context, progs []*ir.Program, w coldWant, iter int) (*node, float64, error) {
	n, err := p.newNode(progs)
	if err != nil {
		return nil, 0, err
	}
	h := n.srv.Handler()
	sel, err := newCall(ctx, http.MethodPost, "/v1/select", query{endpoint: "/v1/select"}.payload())
	if err != nil {
		return nil, 0, err
	}
	var selEnd int64
	var other coldResult
	start := p.clock()
	p.tr.begin("cold.iteration", iter, start)
	// The client that answers last stops the reference operations.
	answered, stop := context.WithCancel(ctx)
	defer stop()
	var pending atomic.Int32
	pending.Store(2)
	finish := func() {
		if pending.Add(-1) == 0 {
			stop()
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer finish()
		_, selEnd = p.exchange(h, sel)
	}()
	go func() {
		defer wg.Done()
		defer finish()
		other = p.subsetAndSweep(ctx, h, w)
	}()
	if iter >= 0 {
		p.ref.during(p, answered)
	}
	wg.Wait()
	end := max(selEnd, other.end)
	p.tr.end(end)

	var problems []string
	if !sel.matches(w.sel) {
		problems = append(problems, sel.describe())
	}
	if other.problem != "" {
		problems = append(problems, other.problem)
	}
	p.check(len(problems) == 0, "cold iteration %d: %v", iter, problems)
	if iter >= 0 {
		p.jobWait = append(p.jobWait, other.wait)
		p.jobRun = append(p.jobRun, other.run)
		if err := p.observe(ctx, n); err != nil {
			return nil, 0, err
		}
	}
	return n, float64(end-start) / 1e6, nil
}

// coldResult is what the second cold client saw.
type coldResult struct {
	end       int64
	problem   string
	wait, run float64 // the sweep job's queue wait and run time, ms
}

// subsetAndSweep submits the default sweep job, sends /v1/subset,
// then polls the job to completion and fetches its result.
func (p *phase) subsetAndSweep(ctx context.Context, h http.Handler, w coldWant) coldResult {
	var res coldResult
	submit, err := newCall(ctx, http.MethodPost, "/v1/jobs", []byte(`{"kind":"sweep","suite":"`+suiteName+`"}`))
	if err != nil {
		return coldResult{problem: err.Error()}
	}
	sub, err := newCall(ctx, http.MethodPost, "/v1/subset", query{endpoint: "/v1/subset"}.payload())
	if err != nil {
		return coldResult{problem: err.Error()}
	}
	_, res.end = p.exchange(h, submit)
	var job report.JobJSON
	if submit.rec.status != http.StatusAccepted || json.Unmarshal(submit.rec.body.Bytes(), &job) != nil {
		res.problem = submit.describe()
		return res
	}
	_, res.end = p.exchange(h, sub)
	if !sub.matches(w.sub) {
		res.problem = sub.describe()
	}
	poll, err := newCall(ctx, http.MethodGet, "/v1/jobs/"+job.ID, nil)
	if err != nil {
		res.problem = err.Error()
		return res
	}
	for !jobs.State(job.State).Terminal() {
		if ctx.Err() != nil {
			res.problem = ctx.Err().Error()
			return res
		}
		pause(ctx, pollEvery)
		_, res.end = p.exchange(h, poll)
		if poll.rec.status != http.StatusOK || json.Unmarshal(poll.rec.body.Bytes(), &job) != nil {
			res.problem = poll.describe()
			return res
		}
	}
	if job.State != string(jobs.StateDone) || job.Started == nil || job.Finished == nil {
		res.problem = fmt.Sprintf("sweep job %s ended %s: %s", job.ID, job.State, job.Error)
		return res
	}
	res.wait = float64(job.Started.Sub(job.Created)) / 1e6
	res.run = float64(job.Finished.Sub(*job.Started)) / 1e6
	result, err := newCall(ctx, http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil)
	if err != nil {
		res.problem = err.Error()
		return res
	}
	_, res.end = p.exchange(h, result)
	if !result.matches(w.sweep) && res.problem == "" {
		res.problem = result.describe()
	}
	return res
}

// client is one closed-loop warm client: its share of the queries, in
// visit order, with their expected bodies, and preallocated sample
// buffers, so its timed loop allocates nothing the server did not.
type client struct {
	calls   []*call
	want    [][]byte
	next    int
	samples []sample
	ref     *refMeter
	failed  int
	note    string
}

// sample is one timed warm request, kept to 16 bytes: warm-hot records
// millions of them per window.
type sample struct {
	start int64  // ns since the phase began
	dur   uint32 // ns; saturates at 4.2s, far above any warm answer
	q     uint16 // index into the client's calls
	ok    bool   // a 200 with the oracle's body
	hit   bool   // X-Cache: hit
}

func (s sample) end() int64 { return s.start + int64(s.dur) }

// loop sends requests back to back until one ends past deadline and
// returns that request's end time.
func (c *client) loop(p *phase, h http.Handler, deadline int64) int64 {
	for {
		i := c.next
		cl := c.calls[i]
		start := p.clock()
		cl.do(h)
		end := p.clock()
		ok := cl.matches(c.want[i])
		c.samples = append(c.samples, sample{start: start, dur: uint32(min(end-start, math.MaxUint32)),
			q: uint16(i), ok: ok, hit: cl.rec.cacheHit()})
		if !ok {
			c.failed++
			if c.note == "" {
				c.note = cl.describe()
			}
		}
		if c.next++; c.next == len(c.calls) {
			c.next = 0
		}
		if end >= deadline {
			return end
		}
		c.ref.after(p, end-start)
	}
}

// drive runs every client for d and returns the wall time from start
// until the last client's last answer.
func (p *phase) drive(h http.Handler, cs []*client, d time.Duration) int64 {
	start := p.clock()
	deadline := start + int64(d)
	ends := make([]int64, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			ends[i] = c.loop(p, h, deadline)
		}(i, c)
	}
	wg.Wait()
	return slices.Max(ends) - start
}

func runWarmHot(p *phase) error { return runWarm(p, hotQueries()) }

func runWarmScan(p *phase) error {
	return runWarm(p, scanQueries(p.o.prof.N(), p.o.targetNames()))
}

// runWarm prefills one server with every query, warms the loop up off
// the clock, then times 2 closed-loop clients cycling their queries.
func runWarm(p *phase, qs []query) error {
	ctx := p.ctx
	want := make([][]byte, len(qs))
	for i, q := range qs {
		b, err := p.o.expect(q)
		if err != nil {
			return err
		}
		want[i] = b
	}
	// Set-up: generate the inputs, start a server, send every query once.
	var n *node
	for rep := 0; rep < p.cfg.reps; rep++ {
		t0 := now()
		progs, err := p.cfg.programs()
		if err != nil {
			return err
		}
		fresh, err := p.newNode(progs)
		if err != nil {
			return err
		}
		for i, q := range qs {
			c, err := newCall(ctx, http.MethodPost, q.endpoint, q.payload())
			if err != nil {
				return err
			}
			c.do(fresh.srv.Handler())
			p.check(c.matches(want[i]), "prefill %v: %s", q, c.describe())
		}
		p.setups = append(p.setups, now().Sub(t0).Seconds())
		if n != nil {
			n.close()
		}
		n = fresh
	}
	defer n.close()
	h := n.srv.Handler()

	// Each client owns every clients-th query of a seeded permutation,
	// so no two clients chase each other through the same keys.
	perm := rng.New(p.cfg.seed).Perm(len(qs))
	cs := make([]*client, clients)
	for ci := range cs {
		cs[ci] = &client{ref: newRefMeter()}
	}
	for i, qi := range perm {
		c := cs[i%clients]
		cl, err := newCall(ctx, http.MethodPost, qs[qi].endpoint, qs[qi].payload())
		if err != nil {
			return err
		}
		c.calls = append(c.calls, cl)
		c.want = append(c.want, want[qi])
	}

	warmup := min(p.cfg.window()/5, 2*time.Second)
	wall := p.drive(h, cs, warmup)
	for _, c := range cs {
		p.tally(c, "warm-up")
		// Size the timed buffers from the warm-up rate, with headroom.
		scale := float64(p.cfg.window()) / float64(wall) * 1.2
		c.samples = make([]sample, 0, int(float64(len(c.samples))*scale)+1024)
		c.ref.durs = make([]float64, 0, int(float64(len(c.ref.durs))*scale)+64)
	}

	if err := p.observeBefore(ctx, n); err != nil {
		return err
	}
	p.openWindow()
	// The window is one traced iteration, so a simulator call during
	// it would count against the timed work.
	p.tr.begin("warm.window", 0, p.winStart)
	p.drive(h, cs, p.cfg.window())
	p.tr.end(p.clock())
	ops := 0
	for _, c := range cs {
		ops += len(c.samples)
	}
	p.closeWindow(ops)
	// Cut the window into equal slices by answer time; see e2eMetrics.
	p.slices = make([][]float64, windowSlices)
	for k := range p.slices {
		p.slices[k] = make([]float64, 0, ops/windowSlices*6/5)
	}
	for _, c := range cs {
		p.tally(c, "timed")
		for _, s := range c.samples {
			k := min(int((s.end()-p.winStart)*windowSlices/p.wall), windowSlices-1)
			p.slices[k] = append(p.slices[k], float64(s.dur)/1e6)
		}
	}
	p.clients = cs
	if err := p.observe(ctx, n); err != nil {
		return err
	}
	return p.finish()
}

// tally adds a client's requests since the last tally to the phase's
// counts.
func (p *phase) tally(c *client, stage string) {
	p.record(len(c.samples), c.failed, func() string {
		return fmt.Sprintf("%s: %d requests failed, first %s", stage, c.failed, c.note)
	})
	c.failed, c.note = 0, ""
}

// runRestart warms one node (build plus its first select, persisted to
// its directory) behind an HTTP peer endpoint, then alternates two
// restarts: a server on the warm directory (disk tier) and one on an
// empty directory with the warm node as its peer (peer tier). Each
// restart is timed from server.New to its first /v1/select answer.
// The peer directory is emptied off the clock before each peer
// restart. The timed window runs on one P.
func runRestart(p *phase) error {
	ctx := p.ctx
	q := query{endpoint: "/v1/select"}
	want, err := p.o.expect(q)
	if err != nil {
		return err
	}
	sel, err := newCall(ctx, http.MethodPost, q.endpoint, q.payload())
	if err != nil {
		return err
	}
	// Set-up: generate the inputs, build a node, start its peer endpoint.
	var progs []*ir.Program
	var warm *node
	var peer *httptest.Server
	for rep := 0; rep < p.cfg.reps; rep++ {
		t0 := now()
		if progs, err = p.cfg.programs(); err != nil {
			return err
		}
		fresh, err := p.newNode(progs)
		if err != nil {
			return err
		}
		sel.do(fresh.srv.Handler())
		p.check(sel.matches(want), "warm node select: %s", sel.describe())
		ts := httptest.NewServer(p.tr.peerHandler(fresh.srv.Handler()))
		p.setups = append(p.setups, now().Sub(t0).Seconds())
		if warm != nil {
			peer.Close()
			warm.close()
		}
		warm, peer = fresh, ts
	}
	defer warm.close()
	defer peer.Close()
	peerDir, err := os.MkdirTemp(p.dir, "peer-*")
	if err != nil {
		return fmt.Errorf("creating peer profile dir: %w", err)
	}

	// One operation is a restart cycle, a disk restart then a peer
	// restart, and its latency is their sum. The two kinds differ by
	// about 1.5x, so the median of single restarts would sit in the
	// gap between them and jump from run to run; a cycle's does not.
	restart := func(name string, cycle int, dir string, peers []string) (float64, string, error) {
		// A restarted daemon starts on an empty heap. Collect first, off
		// the clock, so a collection owed by earlier restarts' garbage
		// does not land inside this one.
		runtime.GC()
		start := p.clock()
		p.tr.begin(name, cycle, start)
		srv := server.New(p.serverConfig(dir, peers, progs))
		p.tr.child(span{Name: "server.New", Start: start, End: p.clock()})
		_, end := p.exchange(srv.Handler(), sel)
		p.tr.end(end)
		problem := ""
		if !sel.matches(want) {
			problem = name + ": " + sel.describe()
		}
		err := p.observe(ctx, &node{srv: srv, dir: dir})
		srv.Close()
		return float64(end-start) / 1e6, problem, err
	}
	// A restart is one request on an otherwise idle process. With a
	// second P idle, each handoff between the restart's goroutines may
	// wake the other vCPU, and on a shared VM that wake-up took either
	// about 0 or about 1ms, in a mix that shifted with the host's load:
	// over 10 runs the disk restart's median had a spread of 34%, and 9%
	// on one P. One P keeps the handoffs on one CPU, so the window times
	// the tiers' own work.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p.openWindow()
	for cycle := 0; cycle == 0 || p.windowOpen(); cycle++ {
		disk, diskProblem, err := restart("restart.disk", cycle, warm.dir, nil)
		if err != nil {
			return err
		}
		if err := emptyDir(peerDir); err != nil {
			return err
		}
		fetched, peerProblem, err := restart("restart.peer", cycle, peerDir, []string{peer.URL})
		if err != nil {
			return err
		}
		p.diskLat = append(p.diskLat, disk)
		p.peerLat = append(p.peerLat, fetched)
		p.lat = append(p.lat, disk+fetched)
		p.check(diskProblem == "" && peerProblem == "", "restart cycle %d: %s%s", cycle, diskProblem, peerProblem)
		p.ref.after(p, int64((disk+fetched)*1e6))
	}
	p.closeWindow(len(p.lat))
	return p.finish()
}

// emptyDir removes everything inside dir.
func emptyDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("emptying %s: %w", dir, err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return fmt.Errorf("emptying %s: %w", dir, err)
		}
	}
	return nil
}

// dirBytes sums the sizes of the stage artifacts under dir (the job
// journal excluded).
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "jobs" {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return total, nil
}

// heapMB is the live heap after a full collection. Two cycles, so
// sync.Pool contents held over from the first are gone too.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

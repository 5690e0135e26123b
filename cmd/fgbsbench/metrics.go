package main

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"fgbs/internal/stats"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// e2eDefs are the end-to-end metrics every workload reports and
// BENCHMARK.json bounds. An operation is a cold iteration, a warm
// request or a restart cycle. latency_p10_ref is latency_p10_ms over
// ref_op_p10_ms, the fast end of the reference operations timed in
// the same window (see ref.go).
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p10_ref", "ratio", "lower"},
	{"heap_mb", "MB", "lower"},
}

// ungatedDefs are end-to-end timings that every untraced table prints
// but BENCHMARK.json lists with the per-layer metrics, from the traced
// run, without a bound: on a shared machine they follow its slow
// phases, and between runs of one commit they moved by more than any
// bound that would still catch a regression (see README.md).
// latency_p10_ms and latency_p50_ms take, for each distinct request (a
// warm query; cold and restart have one kind), that quantile of its
// latencies, and average them over the requests.
var ungatedDefs = []metricDef{
	{"latency_p10_ms", "ms", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"ref_op_p10_ms", "ms", "lower"},
}

// stageNames are the pipeline's stages, as the store counts them.
var stageNames = []string{"detect", "profile", "normalize", "cluster", "represent", "predict"}

// tierNames are the byte tiers the daemon's default chain can hold
// (disk with a profile dir, peer with -peers).
var tierNames = []string{"disk", "peer"}

// layerDefs are the per-layer metrics of a traced phase, after its
// ungated end-to-end timings. Counts are per operation unless the unit
// says otherwise.
var layerDefs = buildLayerDefs()

func buildLayerDefs() []metricDef {
	defs := append(slices.Clone(ungatedDefs), []metricDef{
		{"server.hit_p50_us", "us", "lower"},
		{"server.hit_p99_us", "us", "lower"},
		{"server.miss_p50_us", "us", "lower"},
		{"server.miss_p99_us", "us", "lower"},
		{"server.result_cache_hit_ratio", "ratio", "higher"},
		{"server.result_cache_lookups", "count/op", "lower"},
		{"server.resp_bytes", "bytes", "lower"},
		{"server.registry_builds", "count/op", "lower"},
		{"server.registry_coalesced", "count/op", "higher"},
		{"server.registry_disk_loads", "count/op", "higher"},
		{"server.registry_peer_loads", "count/op", "higher"},
		{"server.cold_self_s", "s", "lower"},
		{"server.restart_disk_p50_ms", "ms", "lower"},
		{"server.restart_disk_mean_ms", "ms", "lower"},
		{"server.restart_peer_p50_ms", "ms", "lower"},
		{"server.restart_peer_mean_ms", "ms", "lower"},
		{"jobs.queue_wait_ms", "ms", "lower"},
		{"jobs.run_ms", "ms", "lower"},
	}...)
	for _, st := range stageNames {
		defs = append(defs,
			metricDef{"stage." + st + ".computes", "count/op", "lower"},
			metricDef{"stage." + st + ".hits", "count/op", "higher"},
			metricDef{"stage." + st + ".joined", "count/op", "higher"})
	}
	defs = append(defs, metricDef{"stage.hit_ratio", "ratio", "higher"})
	for _, t := range tierNames {
		defs = append(defs,
			metricDef{"stage.tier." + t + ".hits", "count/op", "higher"},
			metricDef{"stage.tier." + t + ".misses", "count/op", "lower"},
			metricDef{"stage.tier." + t + ".writes", "count/op", "lower"},
			metricDef{"stage.tier." + t + ".errors", "count/op", "lower"},
			metricDef{"stage.tier." + t + ".quarantined", "count/op", "lower"})
	}
	return append(defs,
		metricDef{"stage.disk_bytes", "bytes", "lower"},
		metricDef{"stage.peer_serve_p50_ms", "ms", "lower"},
		metricDef{"stage.peer_serve_bytes", "bytes", "lower"},
		metricDef{"sim.calls", "count/op", "lower"},
		metricDef{"sim.busy_s", "s/op", "lower"},
		metricDef{"sim.call_p50_ms", "ms", "lower"},
		metricDef{"sim.call_p99_ms", "ms", "lower"},
		metricDef{"sim.inapp_busy_s", "s/op", "lower"},
		metricDef{"sim.standalone_busy_s", "s/op", "lower"},
		metricDef{"sim.parallelism", "ratio", "higher"},
		metricDef{"go.mallocs_per_req", "count/op", "lower"},
		metricDef{"go.alloc_kb_per_req", "KB/op", "lower"},
		metricDef{"go.gc_cycles", "count/kop", "lower"},
		metricDef{"go.gc_pause_ms", "ms/kop", "lower"},
	)
}

// value is one measured metric; n is the number of samples behind it.
type value struct {
	v float64
	n int
}

// metrics maps metric names to values; a missing name is n/a.
type metrics map[string]value

// windowSlices is how many equal time slices a warm window is cut
// into. The p99 latency and throughput are taken per slice and the
// median across slices is reported, so a stall that hits one slice
// (a noisy neighbour, a long GC) moves them little. Cold and restart
// windows hold too few operations to slice.
const windowSlices = 10

func (p *phase) e2eMetrics() metrics {
	m := metrics{"setup_s": {stats.Median(p.setups), len(p.setups)}}
	parts := p.slices
	if parts == nil {
		parts = [][]float64{p.lat}
	}
	width := float64(p.wall) / 1e9 / float64(len(parts))
	var p99s, rates []float64
	for _, s := range parts {
		if len(s) == 0 {
			continue
		}
		p99s = append(p99s, stats.Quantile(s, 0.99))
		rates = append(rates, float64(len(s))/width)
	}
	refs := slices.Clone(p.ref.durs)
	for _, c := range p.clients {
		refs = append(refs, c.ref.durs...)
	}
	if len(rates) > 0 && p.wall > 0 && len(refs) > 0 {
		lat, ref := p.requestQuantiles(0.1, 0.5), stats.Quantile(refs, 0.1)
		m["latency_p10_ref"] = value{lat[0] / ref, p.ops}
		m["latency_p10_ms"] = value{lat[0], p.ops}
		m["latency_p50_ms"] = value{lat[1], p.ops}
		m["latency_p99_ms"] = value{stats.Median(p99s), p.ops}
		m["throughput_rps"] = value{stats.Median(rates), p.ops}
		m["ref_op_p10_ms"] = value{ref, len(refs)}
	}
	if len(rates) > 1 {
		p.sliceNote = fmt.Sprintf("medians over %d slices of %.3gs; slice throughput %.6g to %.6g 1/s",
			len(rates), width, stats.Min(rates), stats.Max(rates))
	}
	return m
}

// requestQuantiles returns, for each quantile in qs, that quantile of
// each distinct request's latencies averaged over the requests, in ms.
// Taking the quantile per request keeps warm-scan's query shapes,
// whose latencies differ several times over, from mixing into it: a
// quantile of all requests pooled can fall between two shapes and jump
// from run to run.
func (p *phase) requestQuantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if p.clients == nil {
		for i, q := range qs {
			out[i] = stats.Quantile(p.lat, q)
		}
		return out
	}
	n := 0
	for _, c := range p.clients {
		byQuery := make([][]float64, len(c.calls))
		for _, s := range c.samples {
			byQuery[s.q] = append(byQuery[s.q], float64(s.dur)/1e6)
		}
		for _, xs := range byQuery {
			if len(xs) == 0 {
				continue
			}
			for i, q := range qs {
				out[i] += stats.Quantile(xs, q)
			}
			n++
		}
	}
	for i := range out {
		out[i] /= float64(n)
	}
	return out
}

// layerMetrics derives the per-layer table from the traced phase's
// ungated end-to-end timings, spans, warm samples, /metricz deltas and runtime
// counters. Only timed work counts (spans with Iter >= 0).
func (p *phase) layerMetrics(spans []span) metrics {
	m := metrics{}
	for _, d := range ungatedDefs {
		if v, ok := p.e2e[d.name]; ok {
			m[d.name] = v
		}
	}
	ops := float64(p.ops)
	perOp := func(name string, total float64) {
		if p.ops > 0 {
			m[name] = value{total / ops, p.ops}
		}
	}
	counter := func(name, key string) {
		if v, ok := p.counters[key]; ok {
			perOp(name, v)
		}
	}
	quantiles := func(prefix, unit string, xs []float64) {
		if len(xs) > 0 {
			slices.Sort(xs)
			m[prefix+"_p50_"+unit] = value{stats.Quantile(xs, 0.50), len(xs)}
			m[prefix+"_p99_"+unit] = value{stats.Quantile(xs, 0.99), len(xs)}
		}
	}
	mean := func(name string, xs []float64) {
		if len(xs) > 0 {
			m[name] = value{stats.Mean(xs), len(xs)}
		}
	}

	// server: answers split by X-Cache, from warm samples and the
	// iterations' handler spans.
	var hit, miss, size []float64
	for _, c := range p.clients {
		for _, s := range c.samples {
			us := float64(s.dur) / 1e3
			if s.hit {
				hit = append(hit, us)
			} else {
				miss = append(miss, us)
			}
			size = append(size, float64(len(c.want[s.q])))
		}
	}
	for _, s := range spans {
		if s.Name != "handler" || s.Iter < 0 || s.Cache == "" {
			continue
		}
		if us := float64(s.dur()) / 1e3; s.Cache == "hit" {
			hit = append(hit, us)
		} else {
			miss = append(miss, us)
		}
		size = append(size, float64(s.Bytes))
	}
	quantiles("server.hit", "us", hit)
	quantiles("server.miss", "us", miss)
	mean("server.resp_bytes", size)
	hits, okH := p.counters["resultCache.hits"]
	misses, okM := p.counters["resultCache.misses"]
	if okH && okM {
		if lookups := hits + misses; lookups > 0 {
			m["server.result_cache_hit_ratio"] = value{hits / lookups, int(lookups)}
		}
		perOp("server.result_cache_lookups", hits+misses)
	}
	counter("server.registry_builds", "registry.builds")
	counter("server.registry_coalesced", "registry.coalesced")
	counter("server.registry_disk_loads", "registry.diskLoads")
	counter("server.registry_peer_loads", "registry.peerLoads")

	// Cold self time: each iteration's span minus the union of its
	// simulator spans.
	simsOf := make(map[int][]span)
	var sims, inApp, standalone []float64
	var peerServe, peerBytes []float64
	for _, s := range spans {
		if s.Iter < 0 {
			continue
		}
		switch s.Name {
		case "sim":
			simsOf[s.Parent] = append(simsOf[s.Parent], s)
			ms := float64(s.dur()) / 1e6
			sims = append(sims, ms)
			if s.Tag == "standalone" {
				standalone = append(standalone, ms)
			} else {
				inApp = append(inApp, ms)
			}
		case "peer.serve":
			peerServe = append(peerServe, float64(s.dur())/1e6)
			peerBytes = append(peerBytes, float64(s.Bytes))
		}
	}
	var self []float64
	var coldWall float64
	for i, s := range spans {
		if s.Name == "cold.iteration" && s.Iter >= 0 {
			self = append(self, float64(s.dur()-covered(simsOf[i], s.Start, s.End))/1e9)
			coldWall += float64(s.dur()) / 1e9
		}
	}
	mean("server.cold_self_s", self)
	if len(p.diskLat) > 0 {
		m["server.restart_disk_p50_ms"] = value{stats.Median(p.diskLat), len(p.diskLat)}
		mean("server.restart_disk_mean_ms", p.diskLat)
	}
	if len(p.peerLat) > 0 {
		m["server.restart_peer_p50_ms"] = value{stats.Median(p.peerLat), len(p.peerLat)}
		mean("server.restart_peer_mean_ms", p.peerLat)
	}

	// jobs
	mean("jobs.queue_wait_ms", p.jobWait)
	mean("jobs.run_ms", p.jobRun)

	// stage
	for _, st := range stageNames {
		for _, f := range []string{"computes", "hits", "joined"} {
			counter("stage."+st+"."+f, "stages.stages."+st+"."+f)
		}
	}
	th, ok1 := p.counters["stages.total.hits"]
	tj, ok2 := p.counters["stages.total.joined"]
	tm, ok3 := p.counters["stages.total.misses"]
	if ok1 && ok2 && ok3 && th+tj+tm > 0 {
		m["stage.hit_ratio"] = value{th / (th + tj + tm), int(th + tj + tm)}
	}
	for _, t := range tierNames {
		for _, f := range []string{"hits", "misses", "writes", "errors", "quarantined"} {
			counter("stage.tier."+t+"."+f, "stages.tiers."+t+"."+f)
		}
	}
	mean("stage.disk_bytes", p.diskBytes)
	if len(peerServe) > 0 {
		m["stage.peer_serve_p50_ms"] = value{stats.Median(peerServe), len(peerServe)}
		mean("stage.peer_serve_bytes", peerBytes)
	}

	// sim
	busy := sum(sims) / 1e3
	perOp("sim.calls", float64(len(sims)))
	perOp("sim.busy_s", busy)
	perOp("sim.inapp_busy_s", sum(inApp)/1e3)
	perOp("sim.standalone_busy_s", sum(standalone)/1e3)
	quantiles("sim.call", "ms", sims)
	if coldWall > 0 {
		m["sim.parallelism"] = value{busy / coldWall, len(self)}
	}

	// go: allocation and collection during the window, per operation,
	// without what the window's reference operations allocated.
	refs := float64(p.e2e["ref_op_p10_ms"].n)
	perOp("go.mallocs_per_req", float64(p.mem1.Mallocs-p.mem0.Mallocs)-refs*p.refMallocs)
	perOp("go.alloc_kb_per_req", (float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)-refs*p.refBytes)/1024)
	perOp("go.gc_cycles", 1000*float64(p.mem1.NumGC-p.mem0.NumGC))
	perOp("go.gc_pause_ms", 1000*float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs)/1e6)
	return m
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// report prints the end-to-end table, the ungated timings below it,
// and the failure tally, then the first failures.
func (p *phase) report(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	writeRows(tw, append(slices.Clone(e2eDefs), ungatedDefs...), p.e2e)
	frac := 0.0
	if p.attempted > 0 {
		frac = float64(p.failed) / float64(p.attempted)
	}
	fmt.Fprintf(tw, "  fail_frac\t%.6g\tratio\t%d\n", frac, p.attempted)
	tw.Flush()
	if p.sliceNote != "" {
		fmt.Fprintf(w, "  (%s)\n", p.sliceNote)
	}
	for _, n := range p.notes {
		fmt.Fprintf(w, "  FAIL %s\n", n)
	}
}

// printLayers prints the per-layer table.
func printLayers(w io.Writer, m metrics) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	writeRows(tw, layerDefs, m)
	tw.Flush()
}

func writeRows(w io.Writer, defs []metricDef, m metrics) {
	fmt.Fprintln(w, "  metric\tvalue\tunit\tn")
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(w, "  %s\t%.6g\t%s\t%d\n", d.name, v.v, d.unit, v.n)
		} else {
			fmt.Fprintf(w, "  %s\tn/a\t%s\t\n", d.name, d.unit)
		}
	}
}

// printOverhead prints traced minus untraced for each end-to-end
// metric and ungated timing.
func printOverhead(w io.Writer, plain, traced metrics) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  tracing overhead\ttraced - untraced\tunit\t%")
	for _, d := range append(slices.Clone(e2eDefs), ungatedDefs...) {
		a, b := plain[d.name], traced[d.name]
		pct := 0.0
		if a.v > 0 {
			pct = 100 * (b.v - a.v) / a.v
		}
		fmt.Fprintf(tw, "  %s\t%+.6g\t%s\t%+.1f\n", d.name, b.v-a.v, d.unit, pct)
	}
	tw.Flush()
}

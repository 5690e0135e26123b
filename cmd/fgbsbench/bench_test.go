package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"fgbs/internal/corpus"
	"fgbs/internal/ir"
)

// smokeConfig runs the workloads on the capped syn-smoke suite with one
// set-up and a short window, so every test stays well under a second
// of timed work per phase.
func smokeConfig(t *testing.T) config {
	return config{
		seed:     7,
		seconds:  0.2,
		reps:     1,
		programs: func() ([]*ir.Program, error) { return corpus.BuildSuite("syn-smoke") },
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func workloadByName(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// TestWorkloads runs every workload untraced and traced: every answer
// matches the oracle, every end-to-end metric is measured and nonzero,
// and the traced phase's per-layer counters show the mechanism the
// workload was chosen to exercise.
func TestWorkloads(t *testing.T) {
	checks := map[string]map[string]float64{
		"cold": {
			"server.registry_builds":    1,
			"server.registry_coalesced": 2,
			"stage.profile.computes":    1,
		},
		"warm-hot": {
			"server.result_cache_hit_ratio": 1,
			"sim.calls":                     0,
			"stage.predict.computes":        0,
		},
		"warm-scan": {
			"stage.hit_ratio": 1,
			"sim.calls":       0,
		},
		"restart": {
			"server.registry_disk_loads": 1,
			"server.registry_peer_loads": 1,
			"stage.profile.computes":     0,
			"sim.calls":                  0,
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			plain, err := runPhase(context.Background(), cfg, w, false)
			if err != nil {
				t.Fatal(err)
			}
			if plain.failed != 0 || plain.attempted == 0 {
				t.Fatalf("untraced: %d of %d operations failed: %v", plain.failed, plain.attempted, plain.notes)
			}
			res := resultOf(plain, nil)
			if !res.Correct || len(res.Metrics) != len(e2eDefs) {
				t.Fatalf("untraced result: %+v", res)
			}
			for _, d := range e2eDefs {
				m := res.Metrics[d.name]
				if m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}

			traced, err := runPhase(context.Background(), cfg, w, true)
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed != 0 {
				t.Fatalf("traced: %d of %d operations failed: %v", traced.failed, traced.attempted, traced.notes)
			}
			res = resultOf(plain, traced)
			if !res.Correct || len(res.Metrics) != len(layerDefs) {
				t.Fatalf("traced result has %d metrics, want %d", len(res.Metrics), len(layerDefs))
			}
			for name, want := range checks[w.name] {
				got, ok := traced.layers[name]
				if !ok || got.v != want {
					t.Errorf("%s = %v (measured %v), want %v", name, got.v, ok, want)
				}
			}
		})
	}
}

// TestMetricNames pins the names and units every metric carries.
func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), e2eDefs...), layerDefs...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 || seen[d.name] {
			t.Errorf("bad or duplicate metric name %q", d.name)
		}
		seen[d.name] = true
		if d.unit == "" || (d.better != "lower" && d.better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.name, d.unit, d.better)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the
// same workloads, end-to-end and per-layer metrics, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, e2eDefs}, {"per_layer", spec.PerLayer, layerDefs}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.name, i, g, d)
			}
		}
	}
}

// TestTamperedOracleFails: an answer that differs from the oracle by a
// byte is a failed operation, not a silent pass.
func TestTamperedOracleFails(t *testing.T) {
	cfg := smokeConfig(t)
	w := workloadByName(t, "warm-hot")
	p, err := newPhase(context.Background(), cfg, w, false)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(p.dir)
	q := hotQueries()[0]
	body, err := p.o.expect(q)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(body, []byte(`"k":`), []byte(`"k": `), 1)
	p.o.memo[q] = tampered
	if err := w.run(p); err != nil {
		t.Fatal(err)
	}
	res := resultOf(p, nil)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered body passed: %+v", res)
	}
	if len(p.notes) == 0 || !strings.Contains(p.notes[0], "/v1/subset") {
		t.Errorf("failure notes %q do not name the query", p.notes)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{Start: 5, End: 10}, {Start: 0, End: 3}, {Start: 8, End: 12}, {Start: 20, End: 30}}
	// Within [2, 25): [2,3) + [5,12) + [20,25) = 1 + 7 + 5.
	if got := covered(spans, 2, 25); got != 13 {
		t.Errorf("covered = %d, want 13", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "("},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-spans", "x.jsonl"},
		{"extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), &stdout, &stderr, args); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want exit 2 and no result", args, code, stdout.String())
		}
	}
	var stderr bytes.Buffer
	if code := run(context.Background(), io.Discard, &stderr, []string{"-h"}); code != 2 {
		t.Errorf("-h: exit %d, want 2", code)
	}
}

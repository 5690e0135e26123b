package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no args", nil},
		{"unknown experiment", []string{"nope"}},
		{"unknown suite", []string{"summary", "-suite", "spec"}},
		{"bad flag", []string{"t5", "-bogus"}},
		{"show without codelet", []string{"show"}},
		{"show unknown codelet", []string{"show", "-codelet", "ghost"}},
		{"negative k", []string{"summary", "-k", "-3"}},
		{"unknown target", []string{"f4", "-target", "PDP-11"}},
		{"unknown export kind", []string{"export", "-what", "yaml"}},
		{"non-positive trials", []string{"f7", "-trials", "0"}},
		{"negative jobs", []string{"f7", "-j", "-4"}},
		{"missing fault profile", []string{"summary", "-faultprofile", "/nonexistent/faults.json"}},
		{"bench bad spec pattern", []string{"bench", "-spec", "["}},
		{"bench no spec matches", []string{"bench", "-spec", "no-such-spec-anywhere"}},
		{"bench negative reps", []string{"bench", "-reps", "-2"}},
		{"bench negative tolerance", []string{"bench", "-tolerance", "-5"}},
		{"bench missing baseline", []string{"bench", "-spec", "^stats/", "-reps", "1", "-warmup", "0", "-compare", "/nonexistent/BENCH.json"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := run(context.Background(), c.args); err == nil {
				t.Errorf("run(%v) succeeded, want error", c.args)
			}
		})
	}
}

func TestRunTable1(t *testing.T) {
	if err := run(context.Background(), []string{"t1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunShow(t *testing.T) {
	if err := run(context.Background(), []string{"show", "-suite", "nr", "-codelet", "tridag_1"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCanceled: a canceled context aborts an experiment before it
// burns profiling time — the SIGINT path without the signal.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"f7", "-suite", "nas", "-trials", "10"}); err == nil {
		t.Error("canceled f7 run succeeded, want context error")
	}
}

// runStdout runs the CLI and returns what it printed to stdout.
func runStdout(t *testing.T, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var readErr error
	out := make(chan []byte)
	go func() {
		b, err := io.ReadAll(r)
		readErr = err
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(context.Background(), args)
	os.Stdout = stdout
	w.Close()
	b := <-out
	r.Close()
	if runErr != nil {
		t.Fatalf("run(%v): %v", args, runErr)
	}
	if readErr != nil {
		t.Fatalf("reading stdout: %v", readErr)
	}
	return b
}

// TestStageDirPersistsPerSeed pins -stagedir as the way to reuse a
// profile across runs: a warm run prints the cold run's bytes from the
// one artifact it wrote, and another seed gets its own artifact and its
// own answer instead of the first seed's.
func TestStageDirPersistsPerSeed(t *testing.T) {
	dir := t.TempDir()
	export := func(seed string) []byte {
		return runStdout(t, "export", "-what", "evaljson", "-suite", "syn-smoke", "-seed", seed, "-stagedir", dir)
	}
	profs := func() []string {
		m, err := filepath.Glob(filepath.Join(dir, "*.art"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cold := export("1")
	if len(cold) == 0 {
		t.Fatal("export printed nothing")
	}
	if warm := export("1"); !bytes.Equal(warm, cold) {
		t.Errorf("warm run differs from cold run:\ncold: %s\nwarm: %s", cold, warm)
	}
	if got := profs(); len(got) != 1 {
		t.Fatalf("after two seed-1 runs: profile artifacts %v, want exactly one", got)
	}
	if other := export("2"); bytes.Equal(other, cold) {
		t.Error("seed 2 printed seed 1's answer")
	}
	if got := profs(); len(got) != 2 {
		t.Errorf("after a seed-2 run: profile artifacts %v, want two", got)
	}
}

// TestValidateListsChoices checks that up-front validation names the
// valid values instead of failing deep in the pipeline.
func TestValidateListsChoices(t *testing.T) {
	cases := []struct {
		cfg  config
		want string
	}{
		{config{suite: "spec", what: "eval", trials: 1}, "nas, nr, poly, joint"},
		{config{suite: "nas", what: "yaml", trials: 1}, "eval, sweep, features, evaljson, subsetjson, select"},
		{config{suite: "nas", what: "eval", target: "VAX", trials: 1}, "Atom"},
		// Known machines that no profile measures: the reference and
		// the extension targets are not valid -target values.
		{config{suite: "nas", what: "evaljson", target: "Nehalem", n: 1, trials: 1}, "(valid: Atom, Core 2, Sandy Bridge)"},
		{config{suite: "nas", what: "evaljson", target: "WideVec", n: 1, trials: 1}, "(valid: Atom, Core 2, Sandy Bridge)"},
		{config{suite: "nas", what: "eval", k: -1, trials: 1}, "elbow"},
	}
	for _, c := range cases {
		err := validate(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("validate(%+v) = %v, want substring %q", c.cfg, err, c.want)
		}
	}
}

// TestRunRejectsInvalidFaultProfile: -faultprofile is validated before
// any profiling starts, and the error names what is wrong.
func TestRunRejectsInvalidFaultProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faults.json")
	if err := os.WriteFile(path, []byte(`{"rules": [{"permanentRate": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"summary", "-faultprofile", path})
	if err == nil || !strings.Contains(err.Error(), "permanentRate") {
		t.Errorf("invalid fault profile error = %v, want the offending field named", err)
	}

	// A rule naming no profiled machine would inject nothing, silently.
	if err := os.WriteFile(path, []byte(`{"rules": [{"machine": "atom", "permanentRate": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"summary", "-suite", "syn-smoke", "-faultprofile", path})
	if err == nil || !strings.Contains(err.Error(), `"atom"`) || !strings.Contains(err.Error(), "Nehalem, Atom, Core 2, Sandy Bridge") {
		t.Errorf("unknown-machine fault profile error = %v, want the name and the valid machines", err)
	}
}

// TestSummaryMarksExcludedCodelets: a target whose codelets are all
// excluded prints "no data" instead of zero errors, one with some
// excluded says how many, and a clean target's line is unchanged.
func TestSummaryMarksExcludedCodelets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(`{"rules": [
		{"machine": "Atom", "permanentRate": 1},
		{"machine": "Core 2", "codelet": "histogram_00001", "permanentRate": 1}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(string(runStdout(t, "summary", "-suite", "syn-smoke", "-faultprofile", path)), "\n") {
		for _, target := range []string{"Atom", "Core 2", "Sandy Bridge"} {
			if strings.HasPrefix(line, target+" ") {
				lines[target] = line
			}
		}
	}
	if got := lines["Atom"]; !strings.Contains(got, "no data (24 excluded)") || strings.Contains(got, "median err") {
		t.Errorf("all-excluded Atom line = %q, want no data", got)
	}
	if got := lines["Core 2"]; !strings.Contains(got, "median err") || !strings.HasSuffix(got, " excluded)") {
		t.Errorf("partly excluded Core 2 line = %q, want an excluded count", got)
	}
	if got := lines["Sandy Bridge"]; !strings.Contains(got, "median err") || strings.Contains(got, "excluded") {
		t.Errorf("clean Sandy Bridge line = %q, want no annotation", got)
	}
}

// TestRunBenchEndToEnd drives the full gate loop on one cheap spec:
// run + persist, then a self-comparison (which can only regress against
// itself through measurement noise, absorbed by a wide tolerance).
func TestRunBenchEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	args := []string{"bench", "-spec", "^stats/", "-reps", "3", "-warmup", "0", "-json", "-out", out}
	if err := run(context.Background(), args); err != nil {
		t.Fatalf("bench run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("bench -out wrote nothing: %v", err)
	}
	if !strings.Contains(string(data), "stats/median-mad") {
		t.Fatalf("run file missing the spec:\n%s", data)
	}
	compare := []string{"bench", "-spec", "^stats/", "-reps", "3", "-warmup", "0", "-quick",
		"-compare", out, "-tolerance", "10000"}
	if err := run(context.Background(), compare); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
}

// TestRunBenchGateFailsOnRegression plants a baseline with impossible
// numbers and checks the compare path exits with an error naming the
// regressed spec.
func TestRunBenchGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_fast.json")
	// A 1ns alloc-free baseline no real run can match.
	doc := `{"version": 1, "quick": false, "reps": 3, "results": [` +
		`{"name": "stats/median-mad", "reps": 3, "rejected": 0, "medianNs": 1, "madNs": 0, "allocsPerOp": 0, "bytesPerOp": 0}]}`
	if err := os.WriteFile(base, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"bench", "-spec", "^stats/", "-reps", "3", "-warmup", "0",
		"-compare", base, "-tolerance", "20"})
	if err == nil || !strings.Contains(err.Error(), "stats/median-mad") {
		t.Fatalf("regression gate error = %v, want the spec named", err)
	}
}

func TestPickHelpers(t *testing.T) {
	if pick(0, 5) != 5 || pick(3, 5) != 3 {
		t.Error("pick wrong")
	}
	if pickS("", "d") != "d" || pickS("x", "d") != "x" {
		t.Error("pickS wrong")
	}
}

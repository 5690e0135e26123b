package main

import (
	"context"
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
		{"save without cache", []string{"save", "-suite", "nr", "-cache", ""}},
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

func TestProfileCacheRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.prof")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := profile(context.Background(), config{cache: path}, "nr")
	if err == nil || !strings.Contains(err.Error(), "re-create") {
		t.Errorf("corrupt cache error = %v", err)
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

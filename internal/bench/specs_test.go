package bench

import (
	"context"
	"testing"
)

// TestRegistryShape pins the registry contract: at least the eight
// specs the trajectory file commits, every name well-formed, docs
// present.
func TestRegistryShape(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry has %d specs, want >= 8: %v", len(names), names)
	}
	want := []string{
		"analysis/vet-tree",
		"cache/hierarchy-reuse",
		"cache/hierarchy-stream",
		"cluster/ward-distance",
		"features/normalize",
		"pipeline/ksweep-cold",
		"pipeline/ksweep-warm",
		"sim/bottleneck",
		"sim/measure-nas",
		"stage/codec-roundtrip",
		"stage/key-hash",
		"stage/restart-read",
		"stats/median-mad",
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, n := range want {
		if !got[n] {
			t.Errorf("registry missing spec %s", n)
		}
	}
	for _, s := range All() {
		if s.Doc == "" {
			t.Errorf("spec %s has no doc line", s.Name)
		}
	}
}

// TestEverySpecRunsOnce executes the full registry at one repetition
// each — the cheapest end-to-end proof that every Setup, Op, Verify and
// Cleanup is sound. Self-asserting specs (the warm K sweep) do their
// own checking inside Verify.
func TestEverySpecRunsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark workload once")
	}
	r := NewRunner(Config{Reps: 1, Warmup: 0})
	run, err := r.Run(context.Background(), All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(run.Results) != len(All()) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(All()))
	}
	for _, res := range run.Results {
		if res.MedianNS < 0 {
			t.Errorf("%s: negative median %v", res.Name, res.MedianNS)
		}
		if res.Reps != 1 {
			t.Errorf("%s: reps %d, want 1", res.Name, res.Reps)
		}
	}
}

func TestRegisterRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no slash", Spec{Name: "noslash", Setup: func(context.Context) (*Instance, error) { return nil, nil }}},
		{"empty name", Spec{Name: "", Setup: func(context.Context) (*Instance, error) { return nil, nil }}},
		{"nil setup", Spec{Name: "a/b"}},
		{"duplicate", Spec{Name: "cluster/ward-distance", Setup: func(context.Context) (*Instance, error) { return nil, nil }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%q) did not panic", tc.spec.Name)
				}
			}()
			Register(tc.spec)
		})
	}
}

func TestMatch(t *testing.T) {
	all, err := Match("")
	if err != nil {
		t.Fatalf("Match(\"\"): %v", err)
	}
	if len(all) != len(All()) {
		t.Fatalf("empty pattern selected %d specs, want %d", len(all), len(All()))
	}

	ward, err := Match("^cluster/")
	if err != nil {
		t.Fatalf("Match(^cluster/): %v", err)
	}
	if len(ward) != 1 || ward[0].Name != "cluster/ward-distance" {
		t.Fatalf("Match(^cluster/) = %v", specNames(ward))
	}

	if _, err := Match("no-such-spec-anywhere"); err == nil {
		t.Fatal("Match on a no-match pattern did not error")
	}
	if _, err := Match("["); err == nil {
		t.Fatal("Match on an invalid regexp did not error")
	}
}

func specNames(specs []Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

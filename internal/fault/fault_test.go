package fault

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fgbs/internal/arch"
	"fgbs/internal/ir"
	"fgbs/internal/sim"
)

// testProgram builds one tiny stream codelet.
func testProgram() (*ir.Program, *ir.Codelet) {
	p := ir.NewProgram("chaosapp")
	p.SetParam("n", 4096)
	p.AddArray("a", ir.F64, ir.AV("n"))
	p.AddArray("b", ir.F64, ir.AV("n"))
	p.MustAddCodelet(&ir.Codelet{
		Name: "chaos_copy", Invocations: 5,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: p.LoadE("b", ir.V("i"))},
		}},
	})
	return p, p.Codelets[0]
}

func simOpts() sim.Options {
	return sim.Options{Machine: arch.Reference(), Mode: sim.ModeStandalone, Seed: 1}
}

func TestEmptyProfileIsTransparent(t *testing.T) {
	p, c := testProgram()
	clean, err := sim.Measure(p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(&Profile{Seed: 7})
	got, err := inj.Measure(context.Background(), p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != clean.Seconds {
		t.Errorf("injector with no rules changed the measurement: %g vs %g", got.Seconds, clean.Seconds)
	}
	if len(got.Invocations) != len(clean.Invocations) {
		t.Errorf("invocation count changed: %d vs %d", len(got.Invocations), len(clean.Invocations))
	}
	for i := range got.Invocations {
		if got.Invocations[i].Seconds != clean.Invocations[i].Seconds {
			t.Errorf("invocation %d changed", i)
		}
	}
}

func TestNoiseIsBoundedAndDeterministic(t *testing.T) {
	p, c := testProgram()
	clean, err := sim.Measure(p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	profile := &Profile{Seed: 42, Rules: []Rule{{NoiseAmp: 0.1}}}
	first := NewInjector(profile)
	a, err := first.Measure(context.Background(), p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, inv := range a.Invocations {
		ratio := inv.Seconds / clean.Invocations[i].Seconds
		if ratio < 0.9-1e-12 || ratio > 1.1+1e-12 {
			t.Errorf("invocation %d noise ratio %g outside [0.9, 1.1]", i, ratio)
		}
	}
	// A fresh injector with the same seed replays the same perturbation.
	second := NewInjector(&Profile{Seed: 42, Rules: []Rule{{NoiseAmp: 0.1}}})
	b, err := second.Measure(context.Background(), p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Errorf("same seed, different outcome: %g vs %g", a.Seconds, b.Seconds)
	}
	// A different seed perturbs differently.
	third := NewInjector(&Profile{Seed: 43, Rules: []Rule{{NoiseAmp: 0.1}}})
	cMeas, err := third.Measure(context.Background(), p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds == cMeas.Seconds {
		t.Errorf("different seeds produced identical noise (possible but wildly unlikely)")
	}
	if st := first.Stats(); st.Noisy != 1 || st.Calls != 1 {
		t.Errorf("stats = %+v, want one noisy call", st)
	}
}

func TestMachineDownEpisodeEnds(t *testing.T) {
	p, c := testProgram()
	inj := NewInjector(&Profile{Seed: 1, Rules: []Rule{{Machine: "Nehalem", DownFor: 2}}})
	for attempt := 0; attempt < 2; attempt++ {
		_, err := inj.Measure(context.Background(), p, c, simOpts())
		if !errors.Is(err, ErrMachineDown) {
			t.Fatalf("attempt %d: err = %v, want ErrMachineDown", attempt, err)
		}
		if !IsTransient(err) {
			t.Fatalf("machine-down must be transient")
		}
	}
	if _, err := inj.Measure(context.Background(), p, c, simOpts()); err != nil {
		t.Fatalf("attempt after the episode: %v, want success", err)
	}
	if st := inj.Stats(); st.Downs != 2 {
		t.Errorf("Downs = %d, want 2", st.Downs)
	}
}

func TestRuleMatchingFirstWins(t *testing.T) {
	p := &Profile{Rules: []Rule{
		{Machine: "Atom", Codelet: "chaos_copy", DownFor: 1},
		{Machine: "Atom", TransientRate: 1},
		{NoiseAmp: 0.5},
	}}
	if r := p.match("Atom", "chaos_copy"); r.DownFor != 1 {
		t.Errorf("specific rule not matched first")
	}
	if r := p.match("Atom", "other"); r.TransientRate != 1 {
		t.Errorf("machine rule not matched")
	}
	if r := p.match("Core 2", "x"); r.NoiseAmp != 0.5 {
		t.Errorf("wildcard rule not matched")
	}
}

func TestPermanentVsTransientClassification(t *testing.T) {
	p, c := testProgram()
	perm := NewInjector(&Profile{Rules: []Rule{{PermanentRate: 1}}})
	_, err := perm.Measure(context.Background(), p, c, simOpts())
	if !errors.Is(err, ErrBroken) || IsTransient(err) {
		t.Errorf("permanent failure misclassified: %v", err)
	}
	tr := NewInjector(&Profile{Rules: []Rule{{TransientRate: 1}}})
	_, err = tr.Measure(context.Background(), p, c, simOpts())
	if !errors.Is(err, ErrInjected) || !IsTransient(err) {
		t.Errorf("transient failure misclassified: %v", err)
	}
	if IsTransient(context.Canceled) {
		t.Errorf("cancellation must not be transient")
	}
	if !IsTransient(context.DeadlineExceeded) {
		t.Errorf("deadline (cut-short hang) must be transient")
	}
	if IsTransient(nil) {
		t.Errorf("nil is not transient")
	}
}

func TestHangIsVisibleThroughDeadline(t *testing.T) {
	p, c := testProgram()
	inj := NewInjector(&Profile{Rules: []Rule{{HangRate: 1}}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := inj.Measure(ctx, p, c, simOpts())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Errorf("hang returned before the deadline")
	}
	if !IsTransient(err) {
		t.Errorf("a cut-short hang must be retryable")
	}
}

func TestDelayRespectsContext(t *testing.T) {
	p, c := testProgram()
	inj := NewInjector(&Profile{Rules: []Rule{{Delay: "5ms"}}})
	if err := inj.profile.Validate(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := inj.Measure(context.Background(), p, c, simOpts()); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Errorf("delay not imposed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inj.Measure(ctx, p, c, simOpts()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled delay err = %v", err)
	}
}

// TestGroupDelayCutShort: when ctx ends before a group's delays do,
// the delayed machines fail with the context's error, each machine
// with a shorter delay or none keeps its measurement, and only the
// attempts whose delay ended draw failure decisions.
func TestGroupDelayCutShort(t *testing.T) {
	p, c := testProgram()
	profile := &Profile{Rules: []Rule{
		{Machine: "Atom", Delay: "1h", TransientRate: 1},
		{Machine: "Core 2", Delay: "1ms", NoiseAmp: 0.1},
	}}
	if err := profile.Validate(); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(profile)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	machines := arch.All()
	ms, errs := inj.MeasureGroup(ctx, p, c, machines, simOpts())
	for j, m := range machines {
		if m.Name == "Atom" {
			if ms[j] != nil || !errors.Is(errs[j], context.DeadlineExceeded) {
				t.Errorf("Atom: err = %v, want DeadlineExceeded", errs[j])
			}
			continue
		}
		alone := NewInjector(profile)
		opts := simOpts()
		opts.Machine = m
		want, err := alone.Measure(context.Background(), p, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if errs[j] != nil || !reflect.DeepEqual(ms[j], want) {
			t.Errorf("%s: err = %v, want the measurement it gets alone", m.Name, errs[j])
		}
	}
	if st := inj.Stats(); st != (Stats{Calls: 2, Noisy: 1, Delays: 2}) {
		t.Errorf("stats = %+v, want two delayed calls, one noisy and no transient", st)
	}
}

func TestCheckMachines(t *testing.T) {
	ok := &Profile{Rules: []Rule{{Machine: "Atom"}, {Machine: "*"}, {Codelet: "x"}}}
	if err := ok.CheckMachines(arch.All()); err != nil {
		t.Errorf("known machines rejected: %v", err)
	}
	bad := &Profile{Rules: []Rule{{Machine: "Atom"}, {Machine: "atom", PermanentRate: 1}}}
	err := bad.CheckMachines(arch.All())
	if err == nil || !strings.Contains(err.Error(), `rule 1: unknown machine "atom"`) ||
		!strings.Contains(err.Error(), "Nehalem, Atom, Core 2, Sandy Bridge") {
		t.Errorf("err = %v, want the rule, its machine and the valid names", err)
	}
}

func TestOutliersArePerturbed(t *testing.T) {
	p, c := testProgram()
	clean, err := sim.Measure(p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(&Profile{Seed: 3, Rules: []Rule{{OutlierRate: 1, OutlierScale: 25}}})
	got, err := inj.Measure(context.Background(), p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Invocations {
		ratio := got.Invocations[i].Seconds / clean.Invocations[i].Seconds
		if math.Abs(ratio-25) > 1e-9 {
			t.Errorf("invocation %d scaled by %g, want 25", i, ratio)
		}
	}
}

func TestParseRejectsBadProfiles(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"rules":[{"noise":0.5}]}`, "valid fields"},
		{"rate above one", `{"rules":[{"transientRate":1.5}]}`, "must be in [0,1]"},
		{"negative rate", `{"rules":[{"hangRate":-0.1}]}`, "must be in [0,1]"},
		{"negative downFor", `{"rules":[{"downFor":-3}]}`, "downFor must be >= 0"},
		{"bad delay", `{"rules":[{"delay":"fast"}]}`, "not a non-negative Go duration"},
		{"negative delay", `{"rules":[{"delay":"-5ms"}]}`, "not a non-negative Go duration"},
		{"not json", `{`, "valid fields"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
	if _, err := Parse([]byte(`{"seed":9,"rules":[{"machine":"Atom","noiseAmp":0.05,"delay":"1ms"}]}`)); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestLoadReferenceProfile(t *testing.T) {
	p, err := Load(filepath.Join("testdata", "reference.json"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed == 0 || len(p.Rules) == 0 {
		t.Errorf("reference profile empty: %+v", p)
	}
	if _, err := Load(filepath.Join("testdata", "missing.json")); err == nil {
		t.Errorf("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"rules":[{"transientRate":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "[0,1]") {
		t.Errorf("bad rates accepted: %v", err)
	}
}

func TestConcurrentInjectionIsDeterministicPerAttempt(t *testing.T) {
	// Outcomes depend only on (machine, codelet, mode, attempt), never
	// on goroutine interleaving: with TransientRate=1 for one codelet,
	// every attempt of it fails and no attempt of the other does,
	// regardless of ordering.
	p, c := testProgram()
	inj := NewInjector(&Profile{Seed: 5, Rules: []Rule{{Codelet: "chaos_copy", TransientRate: 1}}})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := inj.Measure(context.Background(), p, c, simOpts())
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; !IsTransient(err) {
			t.Errorf("concurrent attempt err = %v, want transient", err)
		}
	}
	if st := inj.Stats(); st.Transients != 8 || st.Calls != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimMeasurerHonorsCancellation(t *testing.T) {
	p, c := testProgram()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (Sim{}).Measure(ctx, p, c, simOpts()); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want Canceled", err)
	}
}

func TestStatsString(t *testing.T) {
	// Stats must be JSON-marshalable for /metricz.
	var s Stats
	s.Calls = 3
	if got := fmt.Sprintf("%+v", s); !strings.Contains(got, "3") {
		t.Errorf("stats unprintable: %s", got)
	}
}

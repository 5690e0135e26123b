package measure

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fgbs/internal/arch"
	"fgbs/internal/fault"
	"fgbs/internal/ir"
	"fgbs/internal/sim"
)

// instantSleep makes retry tests immediate while still honoring
// cancellation.
func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// scripted is a Measurer that replays a per-call script of errors
// (nil = succeed with the raw simulator).
type scripted struct {
	mu     sync.Mutex
	script []error
	calls  int
}

func (s *scripted) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error) {
	s.mu.Lock()
	i := s.calls
	s.calls++
	s.mu.Unlock()
	if i < len(s.script) && s.script[i] != nil {
		return nil, s.script[i]
	}
	return fault.Sim{}.Measure(ctx, p, c, opts)
}

func testProgram() (*ir.Program, *ir.Codelet) {
	p := ir.NewProgram("measureapp")
	p.SetParam("n", 4096)
	p.AddArray("a", ir.F64, ir.AV("n"))
	p.AddArray("b", ir.F64, ir.AV("n"))
	p.MustAddCodelet(&ir.Codelet{
		Name: "measure_copy", Invocations: 5,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: p.LoadE("b", ir.V("i"))},
		}},
	})
	return p, p.Codelets[0]
}

func simOpts() sim.Options {
	return sim.Options{Machine: arch.Reference(), Mode: sim.ModeStandalone, Seed: 1}
}

func TestRetriesRideOutTransients(t *testing.T) {
	p, c := testProgram()
	base := &scripted{script: []error{
		fault.Transient(errors.New("flaky")),
		fault.Transient(errors.New("still flaky")),
		nil,
	}}
	r := New(base, Config{MaxAttempts: 4, Sleep: instantSleep})
	meas, err := r.Measure(context.Background(), p, c, simOpts())
	if err != nil {
		t.Fatalf("transient schedule should converge: %v", err)
	}
	if meas.Seconds <= 0 {
		t.Errorf("bad measurement: %g", meas.Seconds)
	}
	if len(meas.Invocations) != DefaultInvocations {
		t.Errorf("invocations = %d, want the protocol floor %d", len(meas.Invocations), DefaultInvocations)
	}
	st := r.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Transients != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPermanentFailureDoesNotRetry(t *testing.T) {
	p, c := testProgram()
	base := &scripted{script: []error{errors.New("segfault"), nil}}
	r := New(base, Config{Sleep: instantSleep})
	_, err := r.Measure(context.Background(), p, c, simOpts())
	var me *Error
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *measure.Error", err)
	}
	if me.Attempts != 1 {
		t.Errorf("permanent failure retried: %d attempts", me.Attempts)
	}
	if base.calls != 1 {
		t.Errorf("base called %d times", base.calls)
	}
	if !strings.Contains(err.Error(), "measure_copy") || !strings.Contains(err.Error(), "standalone") {
		t.Errorf("error lacks identity: %v", err)
	}
}

func TestRetryBudgetExhaustionIsLoud(t *testing.T) {
	p, c := testProgram()
	always := fault.Transient(errors.New("never recovers"))
	base := &scripted{script: []error{always, always, always, always, always, always}}
	r := New(base, Config{MaxAttempts: 3, Sleep: instantSleep})
	_, err := r.Measure(context.Background(), p, c, simOpts())
	var me *Error
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *measure.Error", err)
	}
	if me.Attempts != 3 || base.calls != 3 {
		t.Errorf("attempts = %d, base calls = %d, want 3", me.Attempts, base.calls)
	}
	if !fault.IsTransient(err) {
		t.Errorf("exhausted transient error should still classify transient for upper layers")
	}
	if st := r.Stats(); st.Exhausted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHangCutByAttemptDeadline(t *testing.T) {
	p, c := testProgram()
	inj := fault.NewInjector(&fault.Profile{Seed: 1, Rules: []fault.Rule{{HangRate: 1}}})
	r := New(inj, Config{MaxAttempts: 2, AttemptTimeout: 10 * time.Millisecond, Sleep: instantSleep})
	start := time.Now()
	_, err := r.Measure(context.Background(), p, c, simOpts())
	if err == nil {
		t.Fatal("hanging target succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want the deadline surfaced", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline did not bound the hang: %v", elapsed)
	}
	if st := r.Stats(); st.Timeouts != 2 {
		t.Errorf("stats = %+v, want 2 timeouts", st)
	}
}

func TestOuterCancellationWinsOverRetry(t *testing.T) {
	p, c := testProgram()
	ctx, cancel := context.WithCancel(context.Background())
	base := &scripted{script: []error{fault.Transient(errors.New("flaky"))}}
	r := New(base, Config{MaxAttempts: 5, Sleep: func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}})
	_, err := r.Measure(ctx, p, c, simOpts())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want Canceled", err)
	}
}

func TestMADRejectsInjectedOutliers(t *testing.T) {
	p, c := testProgram()
	clean, err := New(nil, Config{Sleep: instantSleep}).Measure(context.Background(), p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	// ~20% wild outliers: the median alone would survive, but MAD
	// rejection should bring the summary within a tight band of clean.
	inj := fault.NewInjector(&fault.Profile{Seed: 9, Rules: []fault.Rule{{OutlierRate: 0.2, OutlierScale: 50}}})
	r := New(inj, Config{Sleep: instantSleep})
	noisy, err := r.Measure(context.Background(), p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	ratio := noisy.Seconds / clean.Seconds
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("MAD-filtered median off by %gx", ratio)
	}
	if st := r.Stats(); st.Rejected == 0 {
		t.Errorf("no invocations rejected despite injected outliers: %+v", st)
	}
}

func TestBackoffIsExponentialBoundedAndDeterministic(t *testing.T) {
	var prev time.Duration
	for attempt := 1; attempt <= 6; attempt++ {
		d := backoff("c", "m", sim.ModeInApp, attempt)
		if d <= 0 || d > time.Duration(1.5*float64(DefaultMaxBackoff)) {
			t.Errorf("attempt %d: backoff %v out of bounds", attempt, d)
		}
		if attempt <= 3 && d <= prev/4 {
			t.Errorf("attempt %d: backoff %v not growing from %v", attempt, d, prev)
		}
		prev = d
		if again := backoff("c", "m", sim.ModeInApp, attempt); again != d {
			t.Errorf("backoff not deterministic: %v vs %v", d, again)
		}
	}
	if backoff("c", "m", sim.ModeInApp, 1) == backoff("c2", "m", sim.ModeInApp, 1) {
		t.Errorf("jitter identical across identities")
	}
}

func TestTransparentConfigPreservesRawMeasurement(t *testing.T) {
	// The regression configuration: no extra invocations, no MAD — the
	// robust wrapper must be byte-transparent over a clean simulator.
	p, c := testProgram()
	raw, err := sim.Measure(p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := New(nil, Config{Invocations: -1, MADK: -1, Sleep: instantSleep})
	got, err := r.Measure(context.Background(), p, c, simOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seconds != raw.Seconds || len(got.Invocations) != len(raw.Invocations) {
		t.Errorf("transparent config changed the measurement: %g/%d vs %g/%d",
			got.Seconds, len(got.Invocations), raw.Seconds, len(raw.Invocations))
	}
}

// stackOutcome is what one measurement stack returned for a codelet on
// a list of machines, with the stack's counters afterwards.
type stackOutcome struct {
	ms          []*sim.Measurement
	errs        []error
	faultStats  fault.Stats
	robustStats Stats
}

// runStack measures c on machines with a fresh Robust-over-Injector
// stack: with one MeasureGroup call when grouped, else with one
// Measure call per machine, in order.
func runStack(ctx context.Context, profile *fault.Profile, cfg Config, grouped bool, machines []*arch.Machine, opts sim.Options) stackOutcome {
	p, c := testProgram()
	inj := fault.NewInjector(profile)
	r := New(inj, cfg)
	var out stackOutcome
	if grouped {
		out.ms, out.errs = r.MeasureGroup(ctx, p, c, machines, opts)
	} else {
		out.ms = make([]*sim.Measurement, len(machines))
		out.errs = make([]error, len(machines))
		for j, m := range machines {
			opts.Machine = m
			out.ms[j], out.errs[j] = r.Measure(ctx, p, c, opts)
		}
	}
	out.faultStats, out.robustStats = inj.Stats(), r.Stats()
	return out
}

// checkGroupMatchesPerMachine compares a grouped measurement with
// per-machine ones on fresh stacks: the same measurements, the same
// errors (sentinels, text and attempt counts) and the same counters.
// It returns the grouped outcome.
func checkGroupMatchesPerMachine(t *testing.T, profile *fault.Profile, cfg Config, machines []*arch.Machine, opts sim.Options) stackOutcome {
	t.Helper()
	ctx := context.Background()
	group := runStack(ctx, profile, cfg, true, machines, opts)
	each := runStack(ctx, profile, cfg, false, machines, opts)
	for j, m := range machines {
		if !reflect.DeepEqual(group.ms[j], each.ms[j]) {
			t.Errorf("%s: grouped measurement differs from the per-machine one", m.Name)
		}
		ge, ee := group.errs[j], each.errs[j]
		if (ge == nil) != (ee == nil) || ge != nil && ge.Error() != ee.Error() {
			t.Errorf("%s: grouped err %v, per-machine err %v", m.Name, ge, ee)
			continue
		}
		for _, sentinel := range []error{fault.ErrMachineDown, fault.ErrInjected, fault.ErrBroken} {
			if errors.Is(ge, sentinel) != errors.Is(ee, sentinel) {
				t.Errorf("%s: errors.Is(%v) differs: grouped %v, per-machine %v", m.Name, sentinel, ge, ee)
			}
		}
		var gme, eme *Error
		if errors.As(ge, &gme) != errors.As(ee, &eme) || gme != nil && gme.Attempts != eme.Attempts {
			t.Errorf("%s: attempts differ: grouped %v, per-machine %v", m.Name, ge, ee)
		}
	}
	if group.faultStats != each.faultStats {
		t.Errorf("fault stats: grouped %+v, per-machine %+v", group.faultStats, each.faultStats)
	}
	if group.robustStats != each.robustStats {
		t.Errorf("measure stats: grouped %+v, per-machine %+v", group.robustStats, each.robustStats)
	}
	return group
}

// TestGroupMatchesPerMachine: Robust over Injector measures a group of
// machines exactly as it measures each machine alone, under noise,
// outliers, transient and permanent failures and machine-down
// episodes, for many fault seeds, in both modes, with retry budgets
// that some measurements exhaust, and under delays that outlast the
// attempt deadline on one machine only.
func TestGroupMatchesPerMachine(t *testing.T) {
	var fs fault.Stats
	var rs Stats
	for seed := uint64(1); seed <= 12; seed++ {
		profile := &fault.Profile{Seed: seed, Rules: []fault.Rule{
			{Machine: "Atom", NoiseAmp: 0.05, TransientRate: 0.3, DownFor: 2},
			{Machine: "Core 2", OutlierRate: 0.2, OutlierScale: 10, TransientRate: 0.2, PermanentRate: 0.2},
			{Machine: "Sandy Bridge", DownFor: 3},
			{NoiseAmp: 0.03, TransientRate: 0.5},
		}}
		for _, mode := range []sim.Mode{sim.ModeInApp, sim.ModeStandalone} {
			opts := simOpts()
			opts.Mode = mode
			cfg := Config{MaxAttempts: 3, Sleep: instantSleep}
			out := checkGroupMatchesPerMachine(t, profile, cfg, arch.All(), opts)
			fs.Noisy += out.faultStats.Noisy
			fs.Outliers += out.faultStats.Outliers
			fs.Downs += out.faultStats.Downs
			rs.Retries += out.robustStats.Retries
			rs.Permanents += out.robustStats.Permanents
			rs.Exhausted += out.robustStats.Exhausted
		}
	}
	// Every fault kind must have fired somewhere, or the comparison
	// above proves less than it claims.
	if fs.Noisy == 0 || fs.Outliers == 0 || fs.Downs == 0 || rs.Retries == 0 || rs.Permanents == 0 || rs.Exhausted == 0 {
		t.Errorf("schedule too tame: fault stats %+v, measure stats %+v", fs, rs)
	}

	// Delays pace on the wall clock. Atom's outlasts every attempt
	// deadline and Core 2's ends well inside one: only Atom times out,
	// on each of its attempts, grouped as alone.
	delayed := &fault.Profile{Seed: 1, Rules: []fault.Rule{
		{Machine: "Atom", Delay: "200ms"},
		{Machine: "Core 2", Delay: "1ms", NoiseAmp: 0.05},
	}}
	if err := delayed.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxAttempts: 2, AttemptTimeout: 50 * time.Millisecond, Sleep: instantSleep}
	out := checkGroupMatchesPerMachine(t, delayed, cfg, arch.All(), simOpts())
	for j, m := range arch.All() {
		if timedOut := errors.Is(out.errs[j], context.DeadlineExceeded); timedOut != (m.Name == "Atom") {
			t.Errorf("%s: err = %v; only Atom should time out", m.Name, out.errs[j])
		}
	}
	if out.robustStats.Timeouts != int64(cfg.MaxAttempts) {
		t.Errorf("measure stats = %+v, want %d timeouts", out.robustStats, cfg.MaxAttempts)
	}
}

// TestGroupHangCostsOnlyTheHungMachine: one hung machine of four times
// out on every attempt while the other three keep their clean
// measurements from the first round.
func TestGroupHangCostsOnlyTheHungMachine(t *testing.T) {
	p, c := testProgram()
	cfg := Config{MaxAttempts: 4, AttemptTimeout: 10 * time.Millisecond, Sleep: instantSleep}
	inj := fault.NewInjector(&fault.Profile{Seed: 1, Rules: []fault.Rule{{Machine: "Atom", HangRate: 1}}})
	r := New(inj, cfg)
	machines := arch.All()
	ms, errs := r.MeasureGroup(context.Background(), p, c, machines, simOpts())
	clean, cleanErrs := New(nil, cfg).MeasureGroup(context.Background(), p, c, machines, simOpts())
	for j, m := range machines {
		if cleanErrs[j] != nil {
			t.Fatal(cleanErrs[j])
		}
		if m.Name == "Atom" {
			if ms[j] != nil || !errors.Is(errs[j], context.DeadlineExceeded) {
				t.Errorf("Atom: err = %v, want the attempt deadline", errs[j])
			}
			continue
		}
		if errs[j] != nil || !reflect.DeepEqual(ms[j], clean[j]) {
			t.Errorf("%s: err = %v, want the clean measurement", m.Name, errs[j])
		}
	}
	st := r.Stats()
	if st.Timeouts != int64(cfg.MaxAttempts) || st.Exhausted != 1 || st.Attempts != int64(len(machines)-1+cfg.MaxAttempts) {
		t.Errorf("stats = %+v, want %d timeouts, one exhausted, %d attempts", st, cfg.MaxAttempts, len(machines)-1+cfg.MaxAttempts)
	}
}

// FuzzGroupMatchesPerMachine searches past TestGroupMatchesPerMachine:
// fuzzed machine groups, rule targets, rates, episode lengths, retry
// budgets, seeds and modes. Hangs and delays are left out: they pace
// on the wall clock.
func FuzzGroupMatchesPerMachine(f *testing.F) {
	f.Add(uint64(1), false, uint8(0x0f), uint8(0x4e), uint8(40), uint8(25), uint8(80), uint8(30), uint8(2), uint8(3))
	f.Add(uint64(20140215), true, uint8(0x06), uint8(0x1b), uint8(255), uint8(255), uint8(255), uint8(0), uint8(3), uint8(1))
	f.Add(uint64(7), false, uint8(0x09), uint8(0xe4), uint8(0), uint8(0), uint8(128), uint8(255), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, standalone bool, group, targets, noise, outlier, transient, permanent, downFor, maxAttempts uint8) {
		all := arch.All()
		var machines []*arch.Machine
		for i, m := range all {
			if group&(1<<i) != 0 {
				machines = append(machines, m)
			}
		}
		if len(machines) == 0 {
			machines = all
		}
		rate := func(u uint8) float64 { return float64(u) / 255 }
		profile := &fault.Profile{Seed: seed, Rules: []fault.Rule{
			{Machine: all[targets&3].Name, DownFor: int(downFor % 4), TransientRate: rate(transient)},
			{Machine: all[targets>>2&3].Name, OutlierRate: rate(outlier), OutlierScale: 10, PermanentRate: rate(permanent)},
			{Codelet: "measure_copy", NoiseAmp: rate(noise) / 5, TransientRate: rate(transient) / 2, PermanentRate: rate(permanent) / 4},
		}}
		if targets&0x10 != 0 {
			profile.Rules = profile.Rules[1:]
		}
		opts := simOpts()
		if standalone {
			opts.Mode = sim.ModeStandalone
		} else {
			opts.Mode = sim.ModeInApp
		}
		cfg := Config{MaxAttempts: 1 + int(maxAttempts%5), Sleep: instantSleep}
		if targets&0x20 != 0 {
			cfg.MADK = -1
		}
		checkGroupMatchesPerMachine(t, profile, cfg, machines, opts)
	})
}

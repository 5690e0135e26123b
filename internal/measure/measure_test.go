package measure

import (
	"context"
	"errors"
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
	return sim.Options{Machine: arch.Reference(), Mode: sim.ModeStandalone, Seed: 1, ProbeCycles: -1, NoiseAmp: -1}
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
	inj := fault.NewInjector(&fault.Profile{Seed: 1, Rules: []fault.Rule{{HangRate: 1}}}, nil)
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
	inj := fault.NewInjector(&fault.Profile{Seed: 9, Rules: []fault.Rule{{OutlierRate: 0.2, OutlierScale: 50}}}, nil)
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

// Package measure implements the paper's robust measurement protocol
// (§3.4) on top of any — possibly faulty — fault.Measurer:
//
//   - every measurement runs N invocations and summarizes with the
//     median, after rejecting outlier invocations by median absolute
//     deviation (the "≥10 invocations, take the median" rule, hardened
//     against the wild samples fault injection produces);
//   - errors are classified transient or permanent: transient failures
//     (flaky targets, machine-down episodes, hangs cut short by the
//     per-attempt deadline) are retried with exponential backoff and
//     deterministic jitter, bounded by MaxAttempts;
//   - each attempt carries its own context deadline so a hanging
//     target surfaces as a retryable timeout instead of wedging the
//     profiling pool.
//
// A measurement that still fails after the retry budget returns a
// *measure.Error carrying the full attempt history; the pipeline
// escalates it into the ill-behaved/dissolution machinery of
// represent.Select instead of aborting the profile.
package measure

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"fgbs/internal/arch"
	"fgbs/internal/fault"
	"fgbs/internal/ir"
	"fgbs/internal/rng"
	"fgbs/internal/sim"
	"fgbs/internal/stats"
)

// Default protocol knobs.
const (
	// DefaultInvocations is the paper's re-measurement floor: at least
	// 10 invocations, summarized by the median.
	DefaultInvocations = 10
	// DefaultMADK rejects invocations more than 3.5 consistent MADs
	// from the median (the conventional modified-z-score cut).
	DefaultMADK = 3.5
	// DefaultMaxAttempts bounds retries per measurement.
	DefaultMaxAttempts = 4
	// DefaultBaseBackoff is the first retry delay; each retry doubles
	// it up to DefaultMaxBackoff, plus deterministic jitter.
	DefaultBaseBackoff = 2 * time.Millisecond
	// DefaultMaxBackoff caps the exponential growth.
	DefaultMaxBackoff = 50 * time.Millisecond
	// DefaultAttemptTimeout is the per-attempt context deadline: the
	// bound that turns a hang into a retryable timeout.
	DefaultAttemptTimeout = 2 * time.Second
)

// Config tunes the robust protocol. The zero value uses the defaults
// above.
type Config struct {
	// Invocations is the per-measurement invocation count; the
	// measurement keeps the caller's larger request if any. 0 means
	// DefaultInvocations; negative means "leave the caller's value
	// alone" (used by the transparency regression tests).
	Invocations int
	// MADK is the outlier-rejection threshold in consistent MADs.
	// 0 means DefaultMADK; negative disables rejection.
	MADK float64
	// MaxAttempts bounds tries per measurement (0 = default).
	MaxAttempts int
	// AttemptTimeout is the per-attempt deadline (0 = default;
	// negative disables the per-attempt deadline).
	AttemptTimeout time.Duration
	// Sleep waits between retries; tests inject an instant sleeper.
	// nil uses a real timer honoring ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c *Config) fill() {
	if c.Invocations == 0 {
		c.Invocations = DefaultInvocations
	}
	//fgbs:allow floatcompare exact-zero sentinel: 0 means "use the default", never a computed value
	if c.MADK == 0 {
		c.MADK = DefaultMADK
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = DefaultAttemptTimeout
	}
	if c.Sleep == nil {
		c.Sleep = realSleep
	}
}

// realSleep waits for d or ctx, whichever ends first. Retry backoff is
// the one place the measurement layer touches the wall clock; the
// durations never feed a result, only pacing.
func realSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d) //fgbs:allow determinism backoff pacing only; no experiment result reads the clock
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Error is a measurement that exhausted its retry budget (or failed
// permanently). It unwraps to the final attempt's error, so transient
// classification and sentinel matching keep working.
type Error struct {
	Codelet  string
	Machine  string
	Mode     sim.Mode
	Attempts int
	Err      error
}

// Error summarizes the failed measurement.
func (e *Error) Error() string {
	return fmt.Sprintf("measure: %s on %s (%s) failed after %d attempt(s): %v",
		e.Codelet, e.Machine, e.Mode, e.Attempts, e.Err)
}

// Unwrap exposes the final attempt's error.
func (e *Error) Unwrap() error { return e.Err }

// Stats are the protocol's cumulative counters for /metricz and chaos
// assertions. All fields are updated atomically.
type Stats struct {
	Attempts   int64 `json:"attempts"`
	Retries    int64 `json:"retries"`
	Timeouts   int64 `json:"timeouts"`
	Transients int64 `json:"transients"`
	Permanents int64 `json:"permanents"`
	Exhausted  int64 `json:"exhausted"`
	Rejected   int64 `json:"rejectedInvocations"`
}

// Robust wraps a base Measurer with the retry/median/MAD protocol.
// Safe for concurrent use.
type Robust struct {
	base fault.Measurer
	cfg  Config

	attempts   atomic.Int64
	retries    atomic.Int64
	timeouts   atomic.Int64
	transients atomic.Int64
	permanents atomic.Int64
	exhausted  atomic.Int64
	rejected   atomic.Int64
}

// New builds the robust protocol over base (nil = the raw simulator).
func New(base fault.Measurer, cfg Config) *Robust {
	if base == nil {
		base = fault.Sim{}
	}
	cfg.fill()
	return &Robust{base: base, cfg: cfg}
}

// Stats snapshots the counters.
func (r *Robust) Stats() Stats {
	return Stats{
		Attempts:   r.attempts.Load(),
		Retries:    r.retries.Load(),
		Timeouts:   r.timeouts.Load(),
		Transients: r.transients.Load(),
		Permanents: r.permanents.Load(),
		Exhausted:  r.exhausted.Load(),
		Rejected:   r.rejected.Load(),
	}
}

// backoff returns the delay before retry number attempt (1-based),
// exponential with deterministic jitter in [0.5, 1.5) of the base
// value. The jitter stream hashes the measurement identity, so a
// replay backs off identically.
func backoff(codelet, machine string, mode sim.Mode, attempt int) time.Duration {
	d := DefaultBaseBackoff << (attempt - 1)
	if d > DefaultMaxBackoff || d <= 0 {
		d = DefaultMaxBackoff
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "backoff|%s|%s|%d|%d", codelet, machine, mode, attempt)
	jitter := 0.5 + rng.New(h.Sum64()).Float64()
	return time.Duration(float64(d) * jitter)
}

// Measure runs the robust protocol for one codelet on one machine: the
// one-machine case of MeasureGroup.
func (r *Robust) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error) {
	ms, errs := r.MeasureGroup(ctx, p, c, []*arch.Machine{opts.Machine}, opts)
	return ms[0], errs[0]
}

// MeasureGroup runs the robust protocol for one codelet on each of
// machines, returning a measurement or an error per machine. Each round
// measures the still-pending machines with one base group call under
// one attempt deadline, then backs off once, for the longest backoff
// among the machines it retries. Every counter keeps its per-machine
// meaning: an attempt, retry or timeout is one machine's.
func (r *Robust) MeasureGroup(ctx context.Context, p *ir.Program, c *ir.Codelet, machines []*arch.Machine, opts sim.Options) ([]*sim.Measurement, []error) {
	if r.cfg.Invocations > opts.Invocations {
		opts.Invocations = r.cfg.Invocations
	}
	ms := make([]*sim.Measurement, len(machines))
	errs := make([]error, len(machines))
	pending := make([]int, len(machines))
	for j := range pending {
		pending[j] = j
	}
	fail := func(err error) {
		for _, j := range pending {
			errs[j] = err
		}
	}
	for attempt := 1; len(pending) > 0; attempt++ {
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		r.attempts.Add(int64(len(pending)))
		round := make([]*arch.Machine, len(pending))
		for k, j := range pending {
			round[k] = machines[j]
		}
		got, gotErrs := r.measureOnce(ctx, p, c, round, opts)
		var wait time.Duration
		retry := pending[:0]
		for k, j := range pending {
			err := gotErrs[k]
			machine := fault.MachineName(machines[j])
			switch {
			case err == nil:
				ms[j] = r.summarize(got[k])
			case ctx.Err() != nil:
				// The caller gave up; don't reclassify its cancellation.
				errs[j] = ctx.Err()
			case !fault.IsTransient(err):
				r.permanents.Add(1)
				errs[j] = &Error{Codelet: c.Name, Machine: machine, Mode: opts.Mode, Attempts: attempt, Err: err}
			case attempt == r.cfg.MaxAttempts:
				r.transients.Add(1)
				r.exhausted.Add(1)
				errs[j] = &Error{Codelet: c.Name, Machine: machine, Mode: opts.Mode, Attempts: attempt, Err: err}
			default:
				r.transients.Add(1)
				r.retries.Add(1)
				wait = max(wait, backoff(c.Name, machine, opts.Mode, attempt))
				retry = append(retry, j)
			}
		}
		pending = retry
		if len(pending) > 0 {
			if err := r.cfg.Sleep(ctx, wait); err != nil {
				fail(err)
				break
			}
		}
	}
	return ms, errs
}

// measureOnce runs a single attempt on machines under one per-attempt
// deadline. A machine whose attempt the deadline cut short (a hang) is
// counted as a timeout and gets the deadline error, so IsTransient
// says retry; the other machines keep their own outcomes.
func (r *Robust) measureOnce(ctx context.Context, p *ir.Program, c *ir.Codelet, machines []*arch.Machine, opts sim.Options) ([]*sim.Measurement, []error) {
	attemptCtx := ctx
	if r.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, r.cfg.AttemptTimeout)
		defer cancel()
	}
	ms, errs := fault.MeasureGroup(attemptCtx, r.base, p, c, machines, opts)
	if attemptCtx.Err() != nil && ctx.Err() == nil {
		for k, err := range errs {
			if errors.Is(err, context.DeadlineExceeded) {
				r.timeouts.Add(1)
				errs[k] = fmt.Errorf("attempt timed out after %v: %w", r.cfg.AttemptTimeout, context.DeadlineExceeded)
			}
		}
	}
	return ms, errs
}

// summarize applies MAD outlier rejection across the invocation times
// and re-derives the median summary from the surviving invocations.
func (r *Robust) summarize(meas *sim.Measurement) *sim.Measurement {
	if r.cfg.MADK < 0 || len(meas.Invocations) < 3 {
		return meas
	}
	times := make([]float64, len(meas.Invocations))
	for i, inv := range meas.Invocations {
		times[i] = inv.Seconds
	}
	keep := stats.MADKeep(times, r.cfg.MADK)
	if len(keep) == len(times) {
		return meas
	}
	r.rejected.Add(int64(len(times) - len(keep)))
	meas.PickMedian(keep)
	return meas
}

// Package fault is the deterministic fault-injection layer under the
// measurement path. The paper's Step D exists because real
// measurements misbehave — representatives are re-measured with ≥10
// invocations and a median, and ill-behaved ones are replaced — yet a
// simulator is always instant, clean and available. This package
// restores the misbehavior on demand: a seeded injector over the
// simulator imposes multiplicative noise, wild outlier invocations,
// transient errors, hangs (visible only through context deadlines),
// latency, and machine-down episodes, all declared in a JSON fault
// profile so chaos runs are configuration, not code.
//
// Everything is deterministic. Each injection decision is drawn from a
// SplitMix64 stream seeded by the fault profile's seed and the
// measurement's identity (machine, codelet, mode, attempt number), so
// a chaos run replays exactly under a fixed seed regardless of how the
// profiler schedules its goroutines or groups its machines — the same
// property internal/rng gives the GA and the random-clustering
// baseline.
package fault

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"fgbs/internal/arch"
	"fgbs/internal/ir"
	"fgbs/internal/rng"
	"fgbs/internal/sim"
)

// Measurer is the measurement path: anything that can produce a
// sim.Measurement for one codelet on one machine. The raw simulator,
// the fault injector, and the robust retry protocol all implement it,
// so the pipeline composes them freely. Those three also measure a
// codelet on several machines in one call; callers reach that through
// MeasureGroup, which works for any Measurer.
type Measurer interface {
	Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error)
}

// groupMeasurer is a Measurer with a group call: Sim, *Injector and
// measure.Robust. Each one's Measure is the one-machine case of its
// MeasureGroup.
type groupMeasurer interface {
	Measurer
	MeasureGroup(ctx context.Context, p *ir.Program, c *ir.Codelet, machines []*arch.Machine, opts sim.Options) ([]*sim.Measurement, []error)
}

// MeasureGroup measures codelet c of program p with m on each of
// machines under opts (whose Machine it ignores). It returns, per
// machine and in order, a measurement or an error. A Measurer with its
// own MeasureGroup method answers in one call; any other is asked once
// per machine, in order.
func MeasureGroup(ctx context.Context, m Measurer, p *ir.Program, c *ir.Codelet, machines []*arch.Machine, opts sim.Options) ([]*sim.Measurement, []error) {
	if g, ok := m.(groupMeasurer); ok {
		return g.MeasureGroup(ctx, p, c, machines, opts)
	}
	ms := make([]*sim.Measurement, len(machines))
	errs := make([]error, len(machines))
	for j, machine := range machines {
		opts.Machine = machine
		ms[j], errs[j] = m.Measure(ctx, p, c, opts)
	}
	return ms, errs
}

// Sim is the clean Measurer: the raw simulator with no faults. It is
// the bottom of every measurement stack, and what a pipeline given no
// Measurer measures with. Its MeasureGroup is one sim.MeasureGroup
// call, which walks a codelet once per L1 geometry.
type Sim struct{}

// Measure runs the simulator on opts.Machine: the one-machine case of
// MeasureGroup.
func (s Sim) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error) {
	ms, errs := s.MeasureGroup(ctx, p, c, []*arch.Machine{opts.Machine}, opts)
	return ms[0], errs[0]
}

// MeasureGroup runs sim.MeasureGroup. The simulation itself is atomic
// and fast; cancellation is checked on entry so a canceled profiling
// run stops scheduling new work. An error fails every machine.
func (Sim) MeasureGroup(ctx context.Context, p *ir.Program, c *ir.Codelet, machines []*arch.Machine, opts sim.Options) ([]*sim.Measurement, []error) {
	errs := make([]error, len(machines))
	err := ctx.Err()
	var ms []*sim.Measurement
	if err == nil {
		ms, err = sim.MeasureGroup(p, c, machines, opts)
	}
	if err != nil {
		ms = make([]*sim.Measurement, len(machines))
		for j := range errs {
			errs[j] = err
		}
	}
	return ms, errs
}

// TransientError marks a failure worth retrying: the fault is expected
// to clear (a flaky target, a dropped connection, a machine-down
// episode with an end). Permanent failures are every other error.
type TransientError struct {
	Err error
}

// Error describes the transient failure.
func (e *TransientError) Error() string { return "transient: " + e.Err.Error() }

// Unwrap exposes the cause for errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as retryable. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err is retryable: a TransientError
// anywhere in its chain, or a context deadline (a hang that a
// per-attempt timeout cut short — the next attempt may not hang).
// Context cancellation is NOT transient: the caller gave up.
func IsTransient(err error) bool {
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// Sentinel causes the injector wraps in TransientError or returns
// bare (permanent).
var (
	// ErrMachineDown is a machine-down episode: the target is
	// unreachable for a bounded number of attempts. Always transient.
	ErrMachineDown = errors.New("fault: machine down")
	// ErrInjected is a generic injected transient failure.
	ErrInjected = errors.New("fault: injected transient failure")
	// ErrBroken is an injected permanent failure: the measurement can
	// never succeed (a codelet that crashes the target, say).
	ErrBroken = errors.New("fault: measurement permanently broken")
)

// Rule is one fault clause of a profile. Machine and Codelet restrict
// which measurements it applies to ("" or "*" match everything); the
// first matching rule wins. All rates are probabilities in [0, 1],
// evaluated independently per attempt from the deterministic stream.
type Rule struct {
	// Machine matches arch.Machine.Name ("" or "*" = every machine).
	Machine string `json:"machine,omitempty"`
	// Codelet matches ir.Codelet.Name ("" or "*" = every codelet).
	Codelet string `json:"codelet,omitempty"`

	// NoiseAmp adds multiplicative per-invocation noise: each
	// invocation's time is scaled by 1 + NoiseAmp*u with u uniform in
	// [-1, 1]. This stacks on top of the simulator's own probe noise.
	NoiseAmp float64 `json:"noiseAmp,omitempty"`
	// OutlierRate is the probability an invocation is a wild outlier
	// (scaled by OutlierScale) — the misbehavior MAD rejection exists
	// to absorb.
	OutlierRate float64 `json:"outlierRate,omitempty"`
	// OutlierScale is the outlier multiplier (default 10).
	OutlierScale float64 `json:"outlierScale,omitempty"`
	// TransientRate is the probability an attempt fails with an
	// injected transient error.
	TransientRate float64 `json:"transientRate,omitempty"`
	// PermanentRate is the probability an attempt fails permanently
	// (ErrBroken, not retryable).
	PermanentRate float64 `json:"permanentRate,omitempty"`
	// HangRate is the probability an attempt hangs until its context
	// is canceled or times out — the failure mode only visible through
	// per-attempt deadlines.
	HangRate float64 `json:"hangRate,omitempty"`
	// DownFor fails the first DownFor attempts of each matching
	// (machine, codelet, mode) measurement with ErrMachineDown: a
	// deterministic machine-down episode that retries with backoff
	// ride out.
	DownFor int `json:"downFor,omitempty"`
	// Delay imposes real latency per attempt (a Go duration string,
	// e.g. "15ms"), bounded by the attempt's context.
	Delay string `json:"delay,omitempty"`

	delay time.Duration // parsed form of Delay
}

// ruleFields lists the valid JSON fields of a Rule, for the
// flag-validation errors the CLIs print.
const ruleFields = "machine, codelet, noiseAmp, outlierRate, outlierScale, transientRate, permanentRate, hangRate, downFor, delay"

// Profile is a declarative fault profile: a seed and an ordered rule
// list. The zero value injects nothing and is byte-transparent.
type Profile struct {
	// Seed drives every injection decision. Two chaos runs with the
	// same profile and workload are identical.
	Seed uint64 `json:"seed,omitempty"`
	// Rules are matched first-to-last; the first match applies.
	Rules []Rule `json:"rules,omitempty"`
}

// Fingerprint returns a stable content hash of the profile — the hex
// SHA-256 of its canonical JSON encoding. It identifies the injected
// fault configuration in pipeline stage keys (StageOptions.
// MeasurerKey): runs under the same profile share measurement
// artifacts, runs under different ones never collide.
func (p *Profile) Fingerprint() string {
	b, err := json.Marshal(p)
	if err != nil {
		// Profiles are plain data; Marshal cannot fail on one. Keep a
		// distinct constant anyway rather than panicking in a path that
		// only derives cache identity.
		return "fault:unencodable"
	}
	sum := sha256.Sum256(b)
	return "fault:" + hex.EncodeToString(sum[:])
}

// Validate checks every rule: rates in [0, 1], non-negative episode
// lengths, parsable delays. It also parses Delay strings in place.
func (p *Profile) Validate() error {
	for i := range p.Rules {
		r := &p.Rules[i]
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"noiseAmp", r.NoiseAmp},
			{"outlierRate", r.OutlierRate},
			{"transientRate", r.TransientRate},
			{"permanentRate", r.PermanentRate},
			{"hangRate", r.HangRate},
		} {
			if f.v < 0 || f.v > 1 {
				return fmt.Errorf("fault: rule %d: %s must be in [0,1], got %g", i, f.name, f.v)
			}
		}
		if r.OutlierScale < 0 {
			return fmt.Errorf("fault: rule %d: outlierScale must be >= 0, got %g", i, r.OutlierScale)
		}
		if r.DownFor < 0 {
			return fmt.Errorf("fault: rule %d: downFor must be >= 0, got %d", i, r.DownFor)
		}
		if r.Delay != "" {
			d, err := time.ParseDuration(r.Delay)
			if err != nil || d < 0 {
				return fmt.Errorf("fault: rule %d: delay %q is not a non-negative Go duration", i, r.Delay)
			}
			r.delay = d
		}
	}
	return nil
}

// Parse decodes and validates a JSON fault profile. Unknown fields are
// rejected with an error listing the valid ones, matching the
// repository's flag-validation convention.
func Parse(data []byte) (*Profile, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Profile
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: invalid profile: %w (valid fields: seed, rules; rule fields: %s)", err, ruleFields)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and validates a fault profile file.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}

// CheckMachines rejects a rule naming a machine outside ms: it would
// match no measurement and inject nothing, silently. The error lists
// the valid names.
func (p *Profile) CheckMachines(ms []*arch.Machine) error {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	for i, r := range p.Rules {
		if r.Machine != "" && r.Machine != "*" && !slices.Contains(names, r.Machine) {
			return fmt.Errorf("fault: rule %d: unknown machine %q (valid: %s)", i, r.Machine, strings.Join(names, ", "))
		}
	}
	return nil
}

// match returns the first rule applying to (machine, codelet), or nil.
func (p *Profile) match(machine, codelet string) *Rule {
	for i := range p.Rules {
		r := &p.Rules[i]
		if (r.Machine == "" || r.Machine == "*" || r.Machine == machine) &&
			(r.Codelet == "" || r.Codelet == "*" || r.Codelet == codelet) {
			return r
		}
	}
	return nil
}

// Stats are the injector's cumulative counters, for /metricz and chaos
// assertions.
type Stats struct {
	Calls      int64 `json:"calls"`
	Noisy      int64 `json:"noisy"`
	Outliers   int64 `json:"outliers"`
	Transients int64 `json:"transients"`
	Permanents int64 `json:"permanents"`
	Hangs      int64 `json:"hangs"`
	Downs      int64 `json:"downs"`
	Delays     int64 `json:"delays"`
}

// Injector is a Measurer that perturbs the simulator's measurements
// according to a Profile. Safe for concurrent use.
type Injector struct {
	profile *Profile

	mu       sync.Mutex
	attempts map[string]int // per-measurement attempt counter, guarded by mu
	stats    Stats          // guarded by mu
}

// NewInjector injects profile's faults (nil = inject nothing) into
// the simulator's measurements.
func NewInjector(profile *Profile) *Injector {
	if profile == nil {
		profile = &Profile{}
	}
	return &Injector{
		profile:  profile,
		attempts: make(map[string]int),
	}
}

// Stats snapshots the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// nextAttempt returns the 0-based attempt index for a measurement key.
func (in *Injector) nextAttempt(key string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Calls++
	n := in.attempts[key]
	in.attempts[key] = n + 1
	return n
}

func (in *Injector) count(f func(*Stats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}

// stream derives the deterministic decision stream for one attempt of
// one measurement. The hash covers the full identity, so concurrent
// profiling schedules cannot reorder outcomes.
func (in *Injector) stream(machine, codelet string, mode sim.Mode, attempt int) *rng.RNG {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%d", in.profile.Seed, machine, codelet, mode, attempt)
	return rng.New(h.Sum64())
}

// errHang marks an attempt that hangs until its context ends.
var errHang = errors.New("fault: hang")

// Measure is the one-machine case of MeasureGroup.
func (in *Injector) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error) {
	ms, errs := in.MeasureGroup(ctx, p, c, []*arch.Machine{opts.Machine}, opts)
	return ms[0], errs[0]
}

// MeasureGroup applies each machine's first matching rule to one
// measurement attempt on that machine, with the outcome that machine
// would get alone under ctx. Each matched machine draws its decisions
// from its own (seed, machine, codelet, mode, attempt) stream. The
// machines are settled in order of their matched delay, all timed from
// the call's start: a delay that ctx cuts short fails its machine, and
// every longer one, with ctx's error. Once its delay is over, a machine
// draws its failure decisions: machine-down episodes and injected
// failures surface as errors without simulating. The machines that
// pass are simulated by one sim.MeasureGroup call, unless ctx had
// already ended on entry, and noise and outliers then perturb each
// matched one's invocation times from its own stream, re-deriving the
// median with sim's own rule. A hang blocks the call until ctx ends
// and fails only the hung machines.
func (in *Injector) MeasureGroup(ctx context.Context, p *ir.Program, c *ir.Codelet, machines []*arch.Machine, opts sim.Options) ([]*sim.Measurement, []error) {
	entryErr := ctx.Err()
	ms := make([]*sim.Measurement, len(machines))
	errs := make([]error, len(machines))
	draws := make([]draw, len(machines))
	for j, m := range machines {
		name := MachineName(m)
		if rule := in.profile.match(name, c.Name); rule != nil {
			n := in.nextAttempt(fmt.Sprintf("%s|%s|%d", name, c.Name, opts.Mode))
			draws[j] = draw{rule, in.stream(name, c.Name, opts.Mode, n), n}
			if rule.delay > 0 {
				in.count(func(s *Stats) { s.Delays++ })
			}
		}
	}
	order := make([]int, len(machines))
	for j := range order {
		order[j] = j
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(draws[a].delay(), draws[b].delay()) })

	var pass []*arch.Machine
	var passIdx []int
	var waited time.Duration
	cut, hung := false, false
	for _, j := range order {
		d := draws[j]
		if !cut && d.delay() > waited {
			cut = !sleep(ctx, d.delay()-waited)
			waited = d.delay()
		}
		switch {
		case cut:
			errs[j] = ctx.Err()
		case d.rule != nil:
			errs[j] = in.fail(d, MachineName(machines[j]), c.Name)
		}
		if errs[j] == nil {
			pass = append(pass, machines[j])
			passIdx = append(passIdx, j)
		}
		hung = hung || errs[j] == errHang
	}
	if len(pass) > 0 {
		var pms []*sim.Measurement
		err := entryErr
		if err == nil {
			pms, err = sim.MeasureGroup(p, c, pass, opts)
		}
		for k, j := range passIdx {
			if err != nil {
				errs[j] = err
				continue
			}
			ms[j] = pms[k]
			if draws[j].rule != nil {
				in.perturb(ms[j], draws[j])
			}
		}
	}
	if hung {
		// A hang is only observable through the caller's deadline: the
		// attempt blocks until its context gives up, then reports the
		// context's own error so the retry layer classifies it.
		<-ctx.Done()
		for j := range errs {
			if errs[j] == errHang {
				errs[j] = ctx.Err()
			}
		}
	}
	return ms, errs
}

// sleep blocks for d or until ctx ends, whichever is first, and
// reports whether d came first.
func sleep(ctx context.Context, d time.Duration) bool {
	// The allowed wall-clock timer: latency injection is this
	// package's purpose, and the delay is bounded by ctx.
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-tm.C:
		return true
	}
}

// draw is one machine's attempt under a matched rule: the rule, the
// attempt's decision stream and its 0-based index. The zero draw is an
// unmatched machine.
type draw struct {
	rule    *Rule
	r       *rng.RNG
	attempt int
}

// delay is the draw's injected latency, 0 for an unmatched machine.
func (d draw) delay() time.Duration {
	if d.rule == nil {
		return 0
	}
	return d.rule.delay
}

// fail draws d's failure decisions, in order: machine-down episode,
// hang (errHang), permanent, transient. nil means the attempt goes on
// to measure.
func (in *Injector) fail(d draw, machine, codelet string) error {
	rule, r := d.rule, d.r
	switch {
	case d.attempt < rule.DownFor:
		in.count(func(s *Stats) { s.Downs++ })
		return Transient(fmt.Errorf("%w: %s (attempt %d of a %d-attempt episode)",
			ErrMachineDown, machine, d.attempt+1, rule.DownFor))
	case rule.HangRate > 0 && r.Bool(rule.HangRate):
		in.count(func(s *Stats) { s.Hangs++ })
		return errHang
	case rule.PermanentRate > 0 && r.Bool(rule.PermanentRate):
		in.count(func(s *Stats) { s.Permanents++ })
		return fmt.Errorf("%w: %s on %s", ErrBroken, codelet, machine)
	case rule.TransientRate > 0 && r.Bool(rule.TransientRate):
		in.count(func(s *Stats) { s.Transients++ })
		return Transient(fmt.Errorf("%w: %s on %s (attempt %d)", ErrInjected, codelet, machine, d.attempt+1))
	}
	return nil
}

// MachineName is m's name, or "" for a nil machine.
func MachineName(m *arch.Machine) string {
	if m == nil {
		return ""
	}
	return m.Name
}

// perturb scales the measurement's invocation times by per-invocation
// noise and outlier factors, then re-derives the median summary.
func (in *Injector) perturb(meas *sim.Measurement, d draw) {
	rule, r := d.rule, d.r
	if rule.NoiseAmp <= 0 && rule.OutlierRate <= 0 {
		return
	}
	outlierScale := rule.OutlierScale
	if outlierScale <= 0 {
		outlierScale = 10
	}
	noisy, outliers := false, int64(0)
	for i := range meas.Invocations {
		factor := 1.0
		if rule.NoiseAmp > 0 {
			factor *= 1 + rule.NoiseAmp*(2*r.Float64()-1)
			noisy = true
		}
		if rule.OutlierRate > 0 && r.Bool(rule.OutlierRate) {
			factor *= outlierScale
			outliers++
		}
		inv := &meas.Invocations[i]
		inv.Seconds *= factor
		inv.Counters.Seconds *= factor
		inv.Counters.Cycles *= factor
	}
	if noisy {
		in.count(func(s *Stats) { s.Noisy++ })
	}
	if outliers > 0 {
		in.count(func(s *Stats) { s.Outliers += outliers })
	}
	meas.PickMedian(nil)
}

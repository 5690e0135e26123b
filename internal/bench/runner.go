package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fgbs/internal/measure"
	"fgbs/internal/stats"
)

// Runner defaults. Quick mode trades repetitions for wall time — the
// workloads themselves are identical, so quick medians stay comparable
// to a full-mode baseline (only their dispersion estimate is coarser).
const (
	// DefaultReps is the timed repetition count per spec — the §3.4
	// "at least 10 invocations, take the median" floor with headroom
	// for MAD rejection.
	DefaultReps = 25
	// DefaultWarmup runs before timing starts: code and data caches
	// fill, lazy initialization happens off the clock.
	DefaultWarmup = 3
	// QuickReps/QuickWarmup are the CI-gate settings.
	QuickReps   = 8
	QuickWarmup = 1
)

// Config tunes a Runner.
type Config struct {
	// Reps is the timed repetition count per spec (<=0 = default).
	Reps int
	// Warmup is the untimed repetition count per spec: negative means
	// "use the default", zero genuinely disables warmup.
	Warmup int
	// Quick switches Reps/Warmup to the CI-gate defaults when they are
	// unset, and is recorded in the Run for provenance.
	Quick bool
	// MADK is the outlier-rejection threshold in consistent MADs
	// (0 = measure.DefaultMADK, the §3.4 cut internal/measure applies
	// to simulated invocations, here absorbing GC pauses and scheduler
	// noise instead of injected faults; negative disables rejection).
	MADK float64
	// Now is the clock; tests inject a scripted one. nil = time.Now.
	Now func() time.Time
}

func (c *Config) fill() {
	if c.Reps <= 0 {
		if c.Quick {
			c.Reps = QuickReps
		} else {
			c.Reps = DefaultReps
		}
	}
	if c.Warmup < 0 {
		if c.Quick {
			c.Warmup = QuickWarmup
		} else {
			c.Warmup = DefaultWarmup
		}
	}
	//fgbs:allow floatcompare exact-zero sentinel: 0 means "use the default", never a computed value
	if c.MADK == 0 {
		c.MADK = measure.DefaultMADK
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Result is one spec's measured summary.
type Result struct {
	Name string `json:"name"`
	// Reps is the timed repetition count; Rejected of them were MAD
	// outliers excluded from the median.
	Reps     int `json:"reps"`
	Rejected int `json:"rejected"`
	// MedianNS/MADNS summarize per-repetition wall time in
	// nanoseconds: the median of the surviving repetitions and the
	// median absolute deviation across all of them.
	MedianNS float64 `json:"medianNs"`
	MADNS    float64 `json:"madNs"`
	// AllocsPerOp/BytesPerOp are heap allocations and bytes per
	// repetition, averaged over the timed phase.
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
}

// RunVersion is the trajectory file's schema version; bump it when the
// Run layout changes incompatibly.
const RunVersion = 1

// Run is one full benchmark run — the document BENCH_<n>.json persists.
type Run struct {
	Version int      `json:"version"`
	Quick   bool     `json:"quick"`
	Reps    int      `json:"reps"`
	Results []Result `json:"results"`
}

// Lookup returns the run's result for name.
func (r *Run) Lookup(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// Runner executes specs under one Config.
type Runner struct {
	cfg Config
}

// NewRunner builds a runner; cfg's unset fields take defaults.
func NewRunner(cfg Config) *Runner {
	cfg.fill()
	return &Runner{cfg: cfg}
}

// Run executes every spec in order and returns the summarized run.
// Specs run sequentially — concurrent specs would time each other's
// scheduler pressure.
func (r *Runner) Run(ctx context.Context, specs []Spec) (*Run, error) {
	out := &Run{Version: RunVersion, Quick: r.cfg.Quick, Reps: r.cfg.Reps}
	for _, sp := range specs {
		res, err := r.runSpec(ctx, sp)
		if err != nil {
			return nil, fmt.Errorf("bench: spec %s: %w", sp.Name, err)
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}

// runSpec times one spec: setup, warmup, timed repetitions, summary.
func (r *Runner) runSpec(ctx context.Context, sp Spec) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	inst, err := sp.Setup(ctx)
	if err != nil {
		return Result{}, fmt.Errorf("setup: %w", err)
	}
	if inst.Cleanup != nil {
		defer inst.Cleanup()
	}
	for i := 0; i < r.cfg.Warmup; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if err := inst.Op(); err != nil {
			return Result{}, fmt.Errorf("warmup %d: %w", i, err)
		}
	}

	// A collection between warmup and timing keeps one spec's garbage
	// from billing its GC pause to the next repetitions.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	times := make([]float64, r.cfg.Reps)
	for i := 0; i < r.cfg.Reps; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		start := r.cfg.Now()
		if err := inst.Op(); err != nil {
			return Result{}, fmt.Errorf("rep %d: %w", i, err)
		}
		times[i] = float64(r.cfg.Now().Sub(start).Nanoseconds())
	}
	runtime.ReadMemStats(&m1)

	if inst.Verify != nil {
		if err := inst.Verify(); err != nil {
			return Result{}, fmt.Errorf("verify: %w", err)
		}
	}
	return summarize(sp.Name, times, r.cfg.MADK, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc), nil
}

// summarize applies the §3.4 protocol to the repetition times: MAD
// outlier rejection, then the median of the survivors. The MAD itself
// is reported over all repetitions, so the dispersion estimate is not
// flattered by its own rejection.
func summarize(name string, times []float64, madK float64, mallocs, bytes uint64) Result {
	keep := stats.MADKeep(times, madK)
	kept := make([]float64, len(keep))
	for j, i := range keep {
		kept[j] = times[i]
	}
	reps := len(times)
	return Result{
		Name:        name,
		Reps:        reps,
		Rejected:    reps - len(keep),
		MedianNS:    stats.Median(kept),
		MADNS:       stats.MAD(times),
		AllocsPerOp: float64(mallocs) / float64(reps),
		BytesPerOp:  float64(bytes) / float64(reps),
	}
}

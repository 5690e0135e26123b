package sim

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"fgbs/internal/arch"
	"fgbs/internal/cache"
	"fgbs/internal/ir"
	"fgbs/internal/stats"
)

// Mode selects the measurement context (see the package comment).
type Mode uint8

const (
	// ModeInApp profiles the codelet inside its application.
	ModeInApp Mode = iota
	// ModeStandalone measures the extracted microbenchmark.
	ModeStandalone
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeStandalone {
		return "standalone"
	}
	return "in-app"
}

// Measurement model constants.
const (
	// DefaultProbeCycles is the fixed instrumentation overhead charged
	// per invocation (the Likwid probe calls around the codelet). It
	// is what makes short-lived codelets relatively noisy, as §4.4
	// observes.
	DefaultProbeCycles = 12000
	// DefaultNoiseAmp is the amplitude of the deterministic
	// pseudo-noise applied to measured times (run-to-run variability):
	// an invocation's cycles are scaled by a factor in
	// [1-DefaultNoiseAmp, 1+DefaultNoiseAmp].
	DefaultNoiseAmp = 0.02
	// DefaultInvocations is how many invocations are simulated per
	// measurement. Three cover both the dataset-variation period and
	// a cold-then-warm transient.
	DefaultInvocations = 3
)

// Options configures Measure.
type Options struct {
	Machine *arch.Machine
	Mode    Mode
	// Invocations overrides DefaultInvocations when > 0.
	Invocations int
	// Seed drives dataset initialization and measurement pseudo-noise.
	Seed uint64
	// Dataset reuses a prebuilt dataset (else one is built from Seed).
	Dataset *Dataset
}

// ready fills o's defaults and builds its dataset for p if it has
// none.
func (o *Options) ready(p *ir.Program) error {
	if o.Invocations <= 0 {
		o.Invocations = DefaultInvocations
	}
	if o.Dataset == nil {
		ds, err := BuildDataset(p, o.Seed)
		if err != nil {
			return err
		}
		o.Dataset = ds
	}
	return nil
}

// Counters aggregates one invocation's simulated hardware events, the
// stand-in for a Likwid counter group read.
type Counters struct {
	Cycles  float64
	Seconds float64

	Instructions float64
	// Ops tallies architectural operations (scalar-equivalent).
	Ops ir.OpCount
	// VecFPOps is the number of FP operations retired by vector
	// instructions.
	VecFPOps float64
	// MemLoads/MemStores count memory-visible references (after
	// register allocation of scalars).
	MemLoads, MemStores float64

	// LevelHits[i] / LevelMisses[i] index the machine's cache levels.
	LevelHits, LevelMisses []int64
	MemAccesses            int64
	MemWritebacks          int64

	// Cost breakdown.
	ComputeCycles    float64
	BandwidthCycles  float64
	ExposedLatCycles float64
	ProbeCycles      float64
}

// Invocation is one simulated invocation's outcome.
type Invocation struct {
	Index    int
	Seconds  float64
	Counters Counters
}

// Measurement is the result of measuring one codelet on one machine in
// one mode.
type Measurement struct {
	Codelet *ir.Codelet
	Machine *arch.Machine
	Mode    Mode

	Invocations []Invocation
	// Seconds is the median per-invocation time — the paper's
	// outlier-robust summary.
	Seconds float64
	// Counters belongs to the median invocation.
	Counters Counters
	// WorkingSetBytes is the codelet's memory-dump size.
	WorkingSetBytes int64
}

// Measure simulates codelet c of program p under opts.
func Measure(p *ir.Program, c *ir.Codelet, opts Options) (*Measurement, error) {
	ms, err := MeasureGroup(p, c, []*arch.Machine{opts.Machine}, opts)
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// MeasureGroup simulates codelet c of program p on each of machines
// under opts (whose Machine it ignores) and returns one Measurement
// per machine, in order, each equal to what Measure returns for that
// machine. Machines with one L1 geometry are measured in one walk (see
// the package comment).
func MeasureGroup(p *ir.Program, c *ir.Codelet, machines []*arch.Machine, opts Options) ([]*Measurement, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("sim: no machine given")
	}
	l1s := make([]arch.CacheLevel, len(machines))
	for i, m := range machines {
		switch {
		case m == nil:
			return nil, fmt.Errorf("sim: no machine given")
		case len(m.Caches) == 0:
			return nil, fmt.Errorf("sim: machine %s has no cache levels", m.Name)
		}
		l1s[i] = m.Caches[0]
	}
	if err := opts.ready(p); err != nil {
		return nil, err
	}
	out := make([]*Measurement, len(machines))
	for _, walk := range arch.GroupByGeometry(l1s) {
		ms := make([]*arch.Machine, len(walk))
		for j, i := range walk {
			ms[j] = machines[i]
		}
		meas, err := measureWalk(p, c, ms, opts)
		if err != nil {
			return nil, err
		}
		for j, i := range walk {
			out[i] = meas[j]
		}
	}
	return out, nil
}

// measureWalk measures c on machines ms, which share an L1 geometry,
// walking the loop nest once per walked invocation for all of them.
// Each walk's tallies stay in e and in h's counters until the next
// walk. An invocation whose start state equals the last walked one's
// is not walked again: it gets that walk's tallies (see the package
// comment for why this is exact).
func measureWalk(p *ir.Program, c *ir.Codelet, ms []*arch.Machine, opts Options) ([]*Measurement, error) {
	pr, h, out, err := setup(p, c, ms, opts)
	if err != nil {
		return nil, err
	}
	var e *execState
	var walked []int64 // the last walk's start state
	for k := 0; k < opts.Invocations; k++ {
		pr.begin(k, h, opts.Mode)
		if e == nil || !pr.startsAt(walked, h) {
			walked = pr.appendStart(walked[:0], h)
			h.ResetCounters()
			e = &execState{h: h, t: make([]tally, len(ms))}
			for _, n := range pr.root {
				n.run(e)
			}
		}
		for i, meas := range out {
			ctr := assemble(e, pr, i, opts, k)
			meas.Invocations = append(meas.Invocations, Invocation{
				Index: k, Seconds: ctr.Seconds, Counters: ctr,
			})
		}
	}
	for _, meas := range out {
		meas.PickMedian(nil)
	}
	return out, nil
}

// begin readies h and the parameters for invocation k.
func (pr *prepared) begin(k int, h *cache.Hierarchy, mode Mode) {
	if mode != ModeInApp {
		return
	}
	// Between two in-app invocations the rest of the application has
	// trashed the cache — unless the codelet works on the
	// application's shared arrays, which the neighboring codelets keep
	// warm.
	c := pr.codelet
	if !c.WarmInApp {
		h.Flush()
	}
	if pr.vary != nil && c.DatasetVariation > 0 {
		scale := 1 - float64(c.DatasetVariation*float64(k%3))
		if scale < 0.05 {
			scale = 0.05
		}
		*pr.vary = int64(float64(pr.baseVary) * scale)
	}
}

// appendStart appends the start state of an invocation about to run
// on h: every parameter value, then h's cache state.
func (pr *prepared) appendStart(dst []int64, h *cache.Hierarchy) []int64 {
	for _, cell := range pr.params {
		dst = append(dst, *cell)
	}
	return h.AppendState(dst)
}

// startsAt reports whether state, as appendStart built it, is the
// start state of an invocation about to run on h.
func (pr *prepared) startsAt(state []int64, h *cache.Hierarchy) bool {
	if len(state) < len(pr.params) {
		return false
	}
	for i, cell := range pr.params {
		if state[i] != *cell {
			return false
		}
	}
	return h.HasState(state[len(pr.params):])
}

// setup readies one walk under ready opts: c compiled for machines
// ms, their hierarchy (holding the memory dump in standalone mode) and
// one Measurement per machine with no invocations yet.
func setup(p *ir.Program, c *ir.Codelet, ms []*arch.Machine, opts Options) (*prepared, *cache.Hierarchy, []*Measurement, error) {
	ds := opts.Dataset
	pr, err := prepare(p, c, ms, ds, opts.Mode == ModeInApp)
	if err != nil {
		return nil, nil, nil, err
	}

	h, err := cache.NewHierarchy(ms...)
	if err != nil {
		return nil, nil, nil, err
	}

	if opts.Mode == ModeStandalone {
		// The wrapper loads the memory dump before the first run,
		// warming the hierarchy exactly as CF's replay does. Preload
		// order decides which lines survive eviction when the dump
		// exceeds the hierarchy, so it must not follow Go's randomized
		// map iteration: dump arrays in declaration (address) order.
		refd := referencedArrays(c)
		for _, a := range p.Arrays() {
			if refd[a.Name] {
				h.Preload(ds.Base(a.Name), ds.SizeBytes(a.Name))
			}
		}
	}

	out := make([]*Measurement, len(ms))
	for i, m := range ms {
		out[i] = &Measurement{
			Codelet:         c,
			Machine:         m,
			Mode:            opts.Mode,
			WorkingSetBytes: ds.WorkingSetBytes(c),
		}
	}
	return pr, h, out, nil
}

// PickMedian sets Seconds to the median time of the invocations at
// the indices in keep (ascending; nil keeps them all) and Counters to
// the counters of the kept invocation closest to that median, the
// lowest index on ties. Every layer that re-derives a measurement's
// summary (fault injection, MAD rejection) calls it, so the rule has
// one owner.
func (meas *Measurement) PickMedian(keep []int) {
	if keep == nil {
		keep = make([]int, len(meas.Invocations))
		for i := range keep {
			keep[i] = i
		}
	}
	times := make([]float64, len(keep))
	for j, i := range keep {
		times[j] = meas.Invocations[i].Seconds
	}
	meas.Seconds = stats.Median(times)
	bestIdx, bestDiff := keep[0], -1.0
	for j, i := range keep {
		d := times[j] - meas.Seconds
		if d < 0 {
			d = -d
		}
		if bestDiff < 0 || d < bestDiff {
			bestIdx, bestDiff = i, d
		}
	}
	meas.Counters = meas.Invocations[bestIdx].Counters
}

// assemble combines machine i's raw tallies from walk e into Counters
// under its cost model.
func assemble(e *execState, pr *prepared, i int, opts Options, invocation int) Counters {
	m := pr.machines[i]
	t := &e.t[i]
	levels := e.h.MachineLevels(i)
	line := float64(e.h.LineBytes())

	var ctr Counters
	ctr.Instructions = t.instr
	ctr.Ops = t.ops
	ctr.VecFPOps = t.vecFPOps
	ctr.MemLoads = t.memLoads
	ctr.MemStores = t.memStores
	ctr.LevelHits = make([]int64, len(levels))
	ctr.LevelMisses = make([]int64, len(levels))
	for j, l := range levels {
		ctr.LevelHits[j] = l.Hits
		ctr.LevelMisses[j] = l.Misses
	}
	ctr.MemAccesses = e.h.MemAccesses(i)
	ctr.MemWritebacks = e.h.MemWritebacks(i)

	ctr.ComputeCycles = t.computeCycles
	ctr.BandwidthCycles = float64(ctr.MemAccesses+ctr.MemWritebacks) * line / m.MemBWBytesPerCycle
	ctr.ExposedLatCycles = t.exposedLat
	ctr.ProbeCycles = DefaultProbeCycles

	core := ctr.ComputeCycles
	if ctr.BandwidthCycles > core {
		core = ctr.BandwidthCycles
	}
	cycles := core + ctr.ExposedLatCycles + ctr.ProbeCycles

	// Deterministic measurement pseudo-noise.
	noise := 1 + float64(DefaultNoiseAmp*hashUnit(pr.codelet.Name, m.Name, invocation, opts.Seed))
	cycles *= noise

	ctr.Cycles = cycles
	ctr.Seconds = m.CyclesToSeconds(cycles)
	return ctr
}

// hashUnit returns a deterministic value in [-1, 1] from the
// measurement identity.
func hashUnit(codelet, machine string, invocation int, seed uint64) float64 {
	// The bytes of "%s|%s|%d|%d", built without fmt.
	var buf [128]byte
	b := append(buf[:0], codelet...)
	b = append(b, '|')
	b = append(b, machine...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(invocation), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, seed, 10)
	h := fnv.New64a()
	h.Write(b)
	v := h.Sum64()
	return float64(v%20001)/10000 - 1
}

// Package corpus generates synthetic benchmark suites: parameterized
// families of IR codelets (stencils, reductions, dense and sparse
// matrix-vector products, FFT-style butterflies, histograms) whose
// instances span the axes the subsetting methodology cares about —
// memory footprint, access stride, data precision, and branchiness —
// plus a composer that assembles whole synthetic "applications" from
// family codelets over shared arrays.
//
// The hand-built NR and NAS suites exercise the pipeline on a few
// dozen codelets; every scaling claim needs workloads of arbitrary
// size. "Characterizing and Subsetting Big Data Workloads" applies the
// same clustering methodology to a generated workload class, and
// "Machines are benchmarked by code, not algorithms" is why the
// generator's knobs (stride, precision, predication) are first-class
// axes rather than fixed fixtures: tiny source-level changes are
// exactly what moves a codelet between clusters.
//
// Determinism is the package contract. Every codelet draws all of its
// randomness from one sub-seed that is a pure function of (suite seed,
// family, index) — the trialSeeds idiom of internal/pipeline lifted to
// a keyed form — so a generated suite is byte-identical regardless of
// generation order or worker count, and a suite name plus seed fully
// describes hundreds of codelets in one line.
package corpus

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"

	"fgbs/internal/fanout"
	"fgbs/internal/ir"
	"fgbs/internal/rng"
)

// Axis is one generator knob of a family: a named dimension with the
// discrete settings an instance draws from. Axes are documentation and
// contract at once — `fgbs corpus` prints them, and the draw consumes
// exactly one value per axis in declaration order, which is what keeps
// a codelet's stream stable as families evolve (appending a new axis
// after the existing ones changes no prior draw).
type Axis struct {
	Name   string
	Doc    string
	Values []string
}

// String renders the axis as "name=v1|v2|v3" for listings.
func (a Axis) String() string {
	return a.Name + "=" + strings.Join(a.Values, "|")
}

// Family is one parameterized codelet family.
type Family struct {
	Name string
	Doc  string
	Axes []Axis
	// generate builds the family's arrays and codelet body into b,
	// drawing each axis exactly once in declaration order.
	generate func(b *build) *ir.Codelet
}

// families holds the registry, keyed by name. It is populated by
// init in families.go and immutable afterwards.
var families = map[string]*Family{}

// registerFamily panics on duplicates: families are static package
// data, so a collision is a build error.
func registerFamily(f *Family) {
	if _, dup := families[f.Name]; dup {
		panic(fmt.Sprintf("corpus: duplicate family %q", f.Name))
	}
	families[f.Name] = f
}

// FamilyNames returns the registered family names, sorted.
func FamilyNames() []string {
	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FamilyByName returns a family's descriptor; the error for an unknown
// name lists the valid ones.
func FamilyByName(name string) (*Family, error) {
	f := families[name]
	if f == nil {
		return nil, fmt.Errorf("corpus: unknown family %q (valid: %s)",
			name, strings.Join(FamilyNames(), ", "))
	}
	return f, nil
}

// codeletSeed derives the per-codelet generator seed as a pure
// function of (suite seed, family, index): the family name is folded
// through FNV-64a, mixed with the suite seed, and the result is
// advanced through one SplitMix64 step per component so nearby indices
// land in unrelated streams. Nothing about generation order, worker
// count, or sibling codelets can influence the value.
func codeletSeed(seed uint64, family string, index int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(family))
	r := rng.New(seed ^ h.Sum64())
	r.Uint64()
	base := r.Uint64()
	return rng.New(base + uint64(index)).Uint64()
}

// build is the per-codelet generation context handed to family
// builders: the destination program, the codelet's private stream, the
// axis values drawn so far (for the Pattern string), and — in app
// composition — the shared array pool.
type build struct {
	p      *ir.Program
	r      *rng.RNG
	chosen []string
	// footCap, when > 0, clamps the element count any footprint axis
	// resolves to. Smoke-sized suites use it to stay fast under the
	// race detector without consuming the stream differently.
	footCap int64
	// pool is non-nil in app composition: arrays are then served from
	// the application's shared working set instead of created fresh.
	pool *arrayPool
	// arrayN numbers fresh arrays within the program.
	arrayN *int
}

// draw picks one setting of ax and records it for the Pattern string.
func (b *build) draw(ax Axis) string {
	v := ax.Values[b.r.Intn(len(ax.Values))]
	b.chosen = append(b.chosen, ax.Name+"="+v)
	return v
}

// sizeParam binds (or reuses) an integer size parameter for elems
// elements. Parameter names are value-keyed ("n4096"), so codelets
// composed into one application share parameters exactly when they
// share sizes and can never collide.
func (b *build) sizeParam(elems int64) string {
	name := fmt.Sprintf("n%d", elems)
	if _, ok := b.p.Params[name]; !ok {
		b.p.SetParam(name, elems)
	}
	return name
}

// capped applies the build's footprint cap.
func (b *build) capped(elems int64) int64 {
	if b.footCap > 0 && elems > b.footCap {
		return b.footCap
	}
	return elems
}

// array declares (or, in app composition, reuses) an array of dt with
// the given dimensions and integer initialization. Standalone codelets
// always get fresh arrays; composed codelets draw from the
// application's pool so neighboring codelets share working state.
func (b *build) array(dt ir.DType, init ir.IntInit, dims ...ir.Affine) string {
	if b.pool != nil {
		return b.pool.get(b, dt, init, dims)
	}
	return b.fresh(dt, init, dims)
}

// fresh declares a new uniquely named array.
func (b *build) fresh(dt ir.DType, init ir.IntInit, dims []ir.Affine) string {
	name := fmt.Sprintf("a%d", *b.arrayN)
	*b.arrayN++
	a := b.p.AddArray(name, dt, dims...)
	a.Init = init
	return name
}

// scalar declares a fresh scalar cell (never shared: accumulators and
// temporaries are private to their codelet).
func (b *build) scalar(dt ir.DType) string {
	name := fmt.Sprintf("s%d", *b.arrayN)
	*b.arrayN++
	b.p.AddScalar(name, dt)
	return name
}

// cf returns a floating constant of the requested precision.
func (b *build) cf(dt ir.DType, v float64) ir.Expr {
	if dt == ir.F32 {
		return ir.CF32(v)
	}
	return ir.CF(v)
}

// weight draws a small nonzero coefficient in (0.05, 1.05).
func (b *build) weight(dt ir.DType) ir.Expr {
	return b.cf(dt, 0.05+b.r.Float64())
}

// clampify wraps e in level predicated select operations — the IR's
// model of data-dependent branches (compare-and-select, the form
// if-conversion gives branchy inner loops). The branchiness axis feeds
// the min/max op mix the feature catalog observes.
func (b *build) clampify(dt ir.DType, e ir.Expr, level int) ir.Expr {
	if level >= 1 {
		e = ir.MaxE(e, b.cf(dt, 0))
	}
	if level >= 2 {
		e = ir.MinE(e, b.cf(dt, 1e6))
	}
	return e
}

// Shared axes. Footprints are expressed against the CacheScale-scaled
// hierarchy of internal/arch: "l2" parks the working set in the mid
// levels, "llc" in the last level, "mem" streams past everything.
var (
	axDtype = Axis{Name: "dtype", Doc: "element precision", Values: []string{"f64", "f32"}}

	axBranch = Axis{Name: "branchiness", Doc: "predicated selects wrapped around the update (if-conversion)",
		Values: []string{"none", "low", "high"}}

	axStride = Axis{Name: "stride", Doc: "constant access stride in elements",
		Values: []string{"1", "2", "4", "8"}}

	axFoot1D = Axis{Name: "footprint", Doc: "principal 1-D working set",
		Values: []string{"l2", "llc", "mem"}}

	axFoot2D = Axis{Name: "footprint", Doc: "principal 2-D working set",
		Values: []string{"l2", "llc", "mem"}}
)

// foot1DElems maps the 1-D footprint axis to element counts.
func foot1DElems(v string) int64 {
	switch v {
	case "l2":
		return 4096 // 32 KB of f64: past scaled L1, resident in L2/L3
	case "llc":
		return 32768 // 256 KB: last-level resident
	default:
		return 131072 // 1 MB: streams past every scaled cache
	}
}

// foot2DSide maps the 2-D footprint axis to a square grid side.
func foot2DSide(v string) int64 {
	switch v {
	case "l2":
		return 64 // 32 KB of f64
	case "llc":
		return 160 // 200 KB
	default:
		return 288 // 663 KB
	}
}

// branchLevel maps the branchiness axis to a clampify level.
func branchLevel(v string) int {
	switch v {
	case "low":
		return 1
	case "high":
		return 2
	default:
		return 0
	}
}

// strideOf parses the stride axis.
func strideOf(v string) int64 {
	var s int64
	fmt.Sscanf(v, "%d", &s)
	return s
}

// generateInto runs one family build against an existing program (the
// unit both standalone generation and app composition share). The
// codelet is named, stamped with its provenance, validated, and
// attached to b.p.
func generateInto(b *build, f *Family, name string, seed uint64, index int) error {
	c := f.generate(b)
	c.Name = name
	c.Pattern = fmt.Sprintf("SYN %s: %s", f.Name, strings.Join(b.chosen, " "))
	c.SourceRef = fmt.Sprintf("SYN/%s/%05d#%d", f.Name, index, seed)
	if c.Invocations == 0 {
		// Synthetic codelets live in harness loops like PolyBench
		// kernels; the draw keeps the invocation-reduction economics
		// heterogeneous across the suite.
		c.Invocations = 10 + b.r.Intn(51)
	}
	if err := b.p.AddCodelet(c); err != nil {
		return fmt.Errorf("corpus: %s: %w", name, err)
	}
	return nil
}

// Dump renders programs in a canonical text form: Program.Source plus
// the generator-relevant fields it omits (uncovered fraction, integer
// array initialization). Byte-equality of dumps is byte-equality of
// suites — the CLI emits this form and the determinism tests compare
// it.
func Dump(progs []*ir.Program) string {
	var sb strings.Builder
	for i, p := range progs {
		if i > 0 {
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "// uncovered: %.6f\n", p.UncoveredFraction)
		for _, a := range p.Arrays() {
			if a.DT == ir.I64 && a.Init.Kind != ir.IntInitZero {
				kind := "uniform"
				if a.Init.Kind == ir.IntInitMod {
					kind = "mod"
				}
				fmt.Fprintf(&sb, "// init %s: %s [0, %s)\n", a.Name, kind, a.Init.Bound.String())
			}
		}
		sb.WriteString(p.Source())
	}
	return sb.String()
}

// Generate builds codelet index of the named family under the suite
// seed as a standalone single-codelet program (the shape the NR and
// poly suites use). The result is a pure function of the three
// arguments.
func Generate(family string, seed uint64, index int) (*ir.Program, error) {
	f, err := FamilyByName(family)
	if err != nil {
		return nil, err
	}
	return generateOne(f, seed, index, 0)
}

func generateOne(f *Family, seed uint64, index int, footCap int64) (*ir.Program, error) {
	name := fmt.Sprintf("%s_%05d", f.Name, index)
	p := ir.NewProgram(name)
	p.UncoveredFraction = 0
	n := 0
	b := &build{p: p, r: rng.New(codeletSeed(seed, f.Name, index)), footCap: footCap, arrayN: &n}
	if err := generateInto(b, f, name, seed, index); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("corpus: generated program %s invalid: %w", name, err)
	}
	return p, nil
}

// GenerateFamily builds codelets 0..n-1 of one family, each a
// standalone program, fanning the independent builds across workers
// (0 = GOMAXPROCS). Output is byte-identical at every worker count:
// slot i depends only on (family, seed, i).
func GenerateFamily(family string, seed uint64, n, workers int) ([]*ir.Program, error) {
	f, err := FamilyByName(family)
	if err != nil {
		return nil, err
	}
	picks := make([]*Family, n)
	for i := range picks {
		picks[i] = f
	}
	return generateAll(picks, seed, workers, 0)
}

// Mixed builds n standalone codelets cycling round-robin through every
// family (sorted order), under one suite seed. Worker semantics match
// GenerateFamily.
func Mixed(seed uint64, n, workers int) ([]*ir.Program, error) {
	return mixedCapped(seed, n, workers, 0)
}

func mixedCapped(seed uint64, n, workers int, footCap int64) ([]*ir.Program, error) {
	names := FamilyNames()
	picks := make([]*Family, n)
	for i := range picks {
		picks[i] = families[names[i%len(names)]]
	}
	return generateAll(picks, seed, workers, footCap)
}

// generateAll fans the per-index builds across workers. Each slot is
// generated from its own sub-seed, so scheduling cannot reorder
// anything observable.
func generateAll(picks []*Family, seed uint64, workers int, footCap int64) ([]*ir.Program, error) {
	return fanOut(len(picks), workers, func(i int) (*ir.Program, error) {
		return generateOne(picks[i], seed, i, footCap)
	})
}

// fanOut runs gen(0..n-1) across workers (0 = GOMAXPROCS) into slot
// order. gen must be a pure function of its index — that, not the
// scheduling, is what keeps fan-out deterministic.
func fanOut(n, workers int, gen func(i int) (*ir.Program, error)) ([]*ir.Program, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	progs := make([]*ir.Program, n)
	err := fanout.Run(context.Background(), n, workers, func(i int) (err error) {
		progs[i], err = gen(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return progs, nil
}

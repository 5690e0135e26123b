package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/corpus"
	"fgbs/internal/ir"
	"fgbs/internal/suites/nas"
)

// measureWalkingEvery is Measure as it was before invocations whose
// start state repeats were replayed, before line runs were batched and
// before machines shared walks: opts.Machine alone, every invocation
// walks the loop nest, and every iteration of every innermost loop goes
// through the hierarchy (walkEveryIteration). It is kept as the oracle
// Measure and MeasureGroup are checked against.
func measureWalkingEvery(p *ir.Program, c *ir.Codelet, opts Options) (*Measurement, error) {
	if err := opts.ready(p); err != nil {
		return nil, err
	}
	pr, h, out, err := setup(p, c, []*arch.Machine{opts.Machine}, opts)
	if err != nil {
		return nil, err
	}
	meas := out[0]
	for k := 0; k < opts.Invocations; k++ {
		pr.begin(k, h, opts.Mode)
		h.ResetCounters()
		e := &execState{h: h, t: make([]tally, 1)}
		walkEveryIteration(pr, func(n *innerNode) { runEveryIteration(n, e) })
		ctr := assemble(e, pr, 0, opts, k)
		meas.Invocations = append(meas.Invocations, Invocation{
			Index: k, Seconds: ctr.Seconds, Counters: ctr,
		})
	}
	meas.PickMedian(nil)
	return meas, nil
}

// walkEveryIteration runs pr's loop nest like its nodes' run methods,
// except that every entry into an innermost loop goes to inner.
func walkEveryIteration(pr *prepared, inner func(*innerNode)) {
	var walk func(n node)
	walk = func(n node) {
		switch n := n.(type) {
		case *outerNode:
			lo, hi := n.lo(), n.hi()
			for i := lo; i < hi; i++ {
				*n.cell = i
				for _, b := range n.body {
					walk(b)
				}
			}
		case *innerNode:
			inner(n)
		default:
			panic(fmt.Sprintf("unknown node %T", n))
		}
	}
	for _, n := range pr.root {
		walk(n)
	}
}

// runEveryIteration is innerNode.run as it was before line runs were
// batched: every iteration sends every ref through the hierarchy. It is
// kept as the oracle for that batching.
func runEveryIteration(n *innerNode, e *execState) {
	lo, hi := n.lo(), n.hi()
	if !n.enter(e, lo, hi) {
		return
	}
	for i := lo; i < hi; i++ {
		*n.cell = i
		for k := range n.refs {
			if lvl := e.h.Access(nextAddr(n, k), n.refs[k].write); lvl > 0 {
				n.expose(e, k, lvl)
			}
		}
	}
}

// nextAddr returns ref k's address in n's current iteration, as n.run
// computes it; an affine ref advances to its address in the next one.
func nextAddr(n *innerNode, k int) int64 {
	rp := &n.refs[k]
	if !rp.affine {
		return rp.addrFn()
	}
	a := n.addrBuf[k]
	n.addrBuf[k] += rp.strideBytes
	return a
}

// replayCase is one codelet of the differential corpus.
type replayCase struct {
	p *ir.Program
	c *ir.Codelet
}

var (
	replayOnce  sync.Once
	replayCases []replayCase
	replayErr   error
)

// inPlaceScale builds a[i] = 3*a[i] over four times the largest
// modeled L1. After its first standalone invocation every level holds
// the lines, in the order, the dump load left, only dirty: two start
// states that differ in dirty bits alone, and in the write-backs that
// follow from them.
func inPlaceScale() (*ir.Program, *ir.Codelet) {
	p := ir.NewProgram("inplace")
	p.SetParam("n", 4*32*1024/arch.CacheScale/8)
	p.AddArray("a", ir.F64, ir.AV("n"))
	c := &ir.Codelet{
		Name: "scale", Invocations: 100,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: ir.Mul(ir.CF(3), p.LoadE("a", ir.V("i")))},
		}},
	}
	p.MustAddCodelet(c)
	return p, c
}

// setStrideElems is how many doubles apart two addresses map to the
// same L1 set on every modeled machine (4 sets of 64-byte lines).
const setStrideElems = 4 * 64 / 8

// lineRunKernel builds a one-loop codelet for i in [0, trips) over an
// array a of n doubles that loads a at every index in loads, each an
// affine function of i. With store set, the loads' sum is stored to
// b[i]; otherwise it is summed into a register scalar.
func lineRunKernel(name string, n, trips int64, store bool, loads ...ir.Expr) (*ir.Program, *ir.Codelet) {
	p := ir.NewProgram("linerun_" + name)
	p.SetParam("n", n)
	p.SetParam("trips", trips)
	p.AddArray("a", ir.F64, ir.AV("n"))
	p.AddArray("b", ir.F64, ir.AV("n"))
	p.AddScalar("s", ir.F64)
	rhs := p.LoadE("a", loads[0])
	for _, ix := range loads[1:] {
		rhs = ir.Add(rhs, p.LoadE("a", ix))
	}
	lhs := p.Ref("s")
	if store {
		lhs = p.Ref("b", ir.V("i"))
	} else {
		rhs = ir.Add(p.LoadE("s"), rhs)
	}
	c := &ir.Codelet{
		Name: name, Invocations: 10,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("trips"), Body: []ir.Stmt{
			&ir.Assign{LHS: lhs, RHS: rhs},
		}},
	}
	p.MustAddCodelet(c)
	return p, c
}

// lineRunCorpus returns the kernels that pin innerNode's line-run
// batching against runEveryIteration: two refs in one L1 set; 7, 8 and
// 9 distinct lines in one set (ways-1, ways and ways+1 on the 8-way
// L1s, all past the Atom's 6 ways); a negative stride; a loop-invariant
// ref; 64- and 128-byte strides; refs at different offsets within a
// line; trip counts 1 and 2; a store stream; and a gather.
func lineRunCorpus() []replayCase {
	i := ir.V("i")
	plus := func(k int64) ir.Expr { return ir.Add(i, ir.CI(k)) }
	times := func(k int64) ir.Expr { return ir.Mul(ir.CI(k), i) }
	perSet := func(lines int64) []ir.Expr {
		var ix []ir.Expr
		for k := int64(0); k < lines; k++ {
			ix = append(ix, plus(k*setStrideElems))
		}
		return ix
	}
	var cases []replayCase
	add := func(p *ir.Program, c *ir.Codelet) { cases = append(cases, replayCase{p, c}) }
	add(lineRunKernel("two_in_set", 1024, 512, false, i, plus(setStrideElems)))
	for _, lines := range []int64{7, 8, 9} {
		add(lineRunKernel(fmt.Sprintf("set_lines_%d", lines), 256+lines*setStrideElems, 256, false, perSet(lines)...))
	}
	add(lineRunKernel("neg_stride", 512, 500, false, ir.Sub(ir.CI(511), i)))
	add(lineRunKernel("invariant", 512, 300, false, ir.CI(3), i))
	add(lineRunKernel("stride_64", 8*300, 300, false, times(8), i))
	add(lineRunKernel("stride_128", 16*300, 300, false, times(16)))
	add(lineRunKernel("offsets", 512, 500, false, i, plus(1)))
	add(lineRunKernel("trips_1", 64, 1, false, i))
	add(lineRunKernel("trips_2", 64, 2, false, i, plus(7)))
	add(lineRunKernel("store", 600, 599, true, plus(1)))
	// A gather over four times the largest modeled L1: many all-hit
	// iterations are followed by a gather that misses.
	add(gatherKernel(2048, 4*32*1024/arch.CacheScale/8))
	return cases
}

// replayCorpus returns the differential corpus: the first codelet of
// every corpus family, every codelet of a composed app (which holds
// both WarmInApp values), a NAS MG codelet with DatasetVariation both
// as NAS declares it (warm) and flushed, inPlaceScale and
// lineRunCorpus.
func replayCorpus(tb testing.TB) []replayCase {
	tb.Helper()
	replayOnce.Do(func() {
		for _, fam := range corpus.FamilyNames() {
			p, err := corpus.Generate(fam, 20140215, 0)
			if err != nil {
				replayErr = err
				return
			}
			replayCases = append(replayCases, replayCase{p, p.Codelets[0]})
		}
		app, err := corpus.ComposeApp(20140215, 0, 6)
		if err != nil {
			replayErr = err
			return
		}
		for _, c := range app.Codelets {
			replayCases = append(replayCases, replayCase{app, c})
		}
		mg := nas.MG()
		for _, c := range mg.Codelets {
			if c.Name == "mg_norm2u3" {
				flushed := *c
				flushed.WarmInApp = false
				replayCases = append(replayCases, replayCase{mg, c}, replayCase{mg, &flushed})
			}
		}
		p, c := inPlaceScale()
		replayCases = append(replayCases, replayCase{p, c})
		replayCases = append(replayCases, lineRunCorpus()...)
	})
	if replayErr != nil {
		tb.Fatal(replayErr)
	}
	return replayCases
}

func replayMachines() []*arch.Machine {
	return append(arch.All(), arch.WideVec(), arch.NehalemNoVec())
}

// groupCode encodes a machine group for FuzzMeasureMatchesWalk: each
// index into replayMachines takes one nibble, lowest first.
func groupCode(machines ...int) uint32 {
	var code uint32
	for i, m := range machines {
		code |= uint32(m+1) << (4 * i)
	}
	return code
}

// fuzzGroups are the machine groups FuzzMeasureMatchesWalk's seed
// corpus measures in one MeasureGroup call: Core 2 three times with
// Sandy Bridge, a lone Atom, the five machines of arch.All and
// arch.WideVec, and every machine with Nehalem listed twice.
var fuzzGroups = []uint32{
	groupCode(2, 2, 3, 2),
	groupCode(1),
	groupCode(0, 1, 2, 3, 4),
	groupCode(5, 0, 1, 2, 3, 4, 0),
}

// FuzzMeasureMatchesWalk checks that Measure, which replays an
// invocation whose start state repeats and batches line runs, returns
// exactly what walking every iteration of every invocation returns,
// and that MeasureGroup, which walks once for every machine of an L1
// geometry, returns that for each machine of a group. group lists the
// group's machines, one nibble each (index+1 into replayMachines;
// other values skip), and 0 skips the grouped check. The seed corpus,
// which a plain go test runs, is every machine in both modes at 1, 3
// and 10 invocations, rotating through the differential corpus; every
// codelet of that corpus in both modes at the default invocation
// count, on one machine, or on every machine for the lineRunCorpus
// kernels, whose outcome hinges on L1 ways; and every codelet in one
// of fuzzGroups, rotating through them and the modes.
func FuzzMeasureMatchesWalk(f *testing.F) {
	ms := replayMachines()
	i := 0
	for machine := range ms {
		for _, mode := range []Mode{ModeInApp, ModeStandalone} {
			for _, inv := range []uint8{1, 3, 10} {
				f.Add(uint8(i), uint8(machine), uint8(mode), inv, uint64(1), uint32(0))
				i++
			}
		}
	}
	var warm, flushed, varying int
	cases := replayCorpus(f)
	lineRuns := len(cases) - len(lineRunCorpus())
	for codelet, rc := range cases {
		for machine := range ms {
			if codelet < lineRuns && machine != codelet%len(ms) {
				continue
			}
			for _, mode := range []Mode{ModeInApp, ModeStandalone} {
				f.Add(uint8(codelet), uint8(machine), uint8(mode), uint8(0), uint64(2), uint32(0))
			}
		}
		f.Add(uint8(codelet), uint8(0), uint8(codelet/len(fuzzGroups)), uint8(0), uint64(3), fuzzGroups[codelet%len(fuzzGroups)])
		if rc.c.WarmInApp {
			warm++
		} else {
			flushed++
		}
		if rc.c.DatasetVariation > 0 {
			varying++
		}
	}
	if warm == 0 || flushed == 0 || varying == 0 {
		f.Fatalf("corpus has %d warm, %d flushed, %d varying codelets; want each > 0", warm, flushed, varying)
	}
	f.Fuzz(func(t *testing.T, codelet, machine, mode, invocations uint8, seed uint64, group uint32) {
		cases := replayCorpus(t)
		rc := cases[int(codelet)%len(cases)]
		opts := Options{
			Machine:     ms[int(machine)%len(ms)],
			Mode:        Mode(mode % 2),
			Invocations: int(invocations % 13), // 0 = DefaultInvocations
			Seed:        seed,
		}
		walked := func(m *arch.Machine) *Measurement {
			o := opts
			o.Machine = m
			want, err := measureWalkingEvery(rc.p, rc.c, o)
			if err != nil {
				t.Fatal(err)
			}
			return want
		}
		got, err := Measure(rc.p, rc.c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := walked(opts.Machine); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %s, %s, %d invocations, seed %d:\n got %+v\nwant %+v",
				rc.c.Name, opts.Machine.Name, opts.Mode, len(want.Invocations), seed,
				got.Invocations, want.Invocations)
		}

		var members []*arch.Machine
		for ; group != 0; group >>= 4 {
			if i := int(group&15) - 1; i >= 0 && i < len(ms) {
				members = append(members, ms[i])
			}
		}
		if len(members) == 0 {
			return
		}
		grouped, err := MeasureGroup(rc.p, rc.c, members, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range members {
			if want := walked(m); !reflect.DeepEqual(grouped[i], want) {
				t.Fatalf("%s on %s (member %d of %d), %s, %d invocations, seed %d:\n got %+v\nwant %+v",
					rc.c.Name, m.Name, i, len(members), opts.Mode, len(want.Invocations), seed,
					grouped[i].Invocations, want.Invocations)
			}
		}
	})
}

// Every invocation owns its counter slices, replayed ones included:
// callers rescale or pick invocations one by one.
func TestInvocationsOwnLevelSlices(t *testing.T) {
	p, c := streamTriad(4000)
	c.WarmInApp = false
	for _, mode := range []Mode{ModeInApp, ModeStandalone} {
		m, err := Measure(p, c, Options{Machine: arch.Reference(), Mode: mode, Invocations: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Invocations {
			before := make([][2][]int64, len(m.Invocations))
			for j, inv := range m.Invocations {
				before[j] = [2][]int64{
					append([]int64(nil), inv.Counters.LevelHits...),
					append([]int64(nil), inv.Counters.LevelMisses...),
				}
			}
			m.Invocations[i].Counters.LevelHits[0] += 1000
			m.Invocations[i].Counters.LevelMisses[0] += 1000
			for j, inv := range m.Invocations {
				if j == i {
					continue
				}
				if !reflect.DeepEqual(inv.Counters.LevelHits, before[j][0]) ||
					!reflect.DeepEqual(inv.Counters.LevelMisses, before[j][1]) {
					t.Fatalf("%s: mutating invocation %d changed invocation %d", mode, i, j)
				}
			}
		}
	}
}

// hashUnit hashes the bytes fmt's "%s|%s|%d|%d" would print.
func TestHashUnitMatchesFmt(t *testing.T) {
	names := []string{"", "a", "tridag_1", "synapp_007_c03_stencil2d", "name|with|bars", string(make([]byte, 200))}
	machines := []string{"", "Nehalem", "Atom", "SandyBridge-WideVec"}
	invocations := []int{0, 1, 9, 10, -1, 1 << 40}
	seeds := []uint64{0, 1, 20140215, 1<<63 + 5, ^uint64(0)}
	for _, c := range names {
		for _, m := range machines {
			for _, k := range invocations {
				for _, s := range seeds {
					h := fnv.New64a()
					fmt.Fprintf(h, "%s|%s|%d|%d", c, m, k, s)
					want := float64(h.Sum64()%20001)/10000 - 1
					if got := hashUnit(c, m, k, s); got != want {
						t.Fatalf("hashUnit(%q, %q, %d, %d) = %v, want %v", c, m, k, s, got, want)
					}
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { hashUnit("synapp_007_c03_stencil2d", "Nehalem", 2, 20140215) }); n != 0 {
		t.Fatalf("hashUnit allocates %v times per call", n)
	}
}

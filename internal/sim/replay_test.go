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
// start state repeats were replayed: every invocation walks the loop
// nest through the hierarchy. It is kept as the oracle Measure is
// checked against.
func measureWalkingEvery(p *ir.Program, c *ir.Codelet, opts Options) (*Measurement, error) {
	pr, h, meas, err := setup(p, c, &opts)
	if err != nil {
		return nil, err
	}
	varyCell := pr.cells[c.VaryParam]
	baseVary := int64(0)
	if varyCell != nil {
		baseVary = *varyCell
	}
	for k := 0; k < opts.Invocations; k++ {
		if opts.Mode == ModeInApp {
			if !c.WarmInApp {
				h.Flush()
			}
			if varyCell != nil && c.DatasetVariation > 0 {
				scale := 1 - c.DatasetVariation*float64(k%3)
				if scale < 0.05 {
					scale = 0.05
				}
				*varyCell = int64(float64(baseVary) * scale)
			}
		}
		h.ResetCounters()
		e := &execState{h: h}
		for _, n := range pr.root {
			n.run(e)
		}
		ctr := assemble(e, pr, opts, k)
		meas.Invocations = append(meas.Invocations, Invocation{
			Index: k, Seconds: ctr.Seconds, Counters: ctr,
		})
	}
	meas.pickMedian()
	return meas, nil
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

// replayCorpus returns the differential corpus: the first codelet of
// every corpus family, every codelet of a composed app (which holds
// both WarmInApp values), a NAS MG codelet with DatasetVariation both
// as NAS declares it (warm) and flushed, and inPlaceScale.
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
	})
	if replayErr != nil {
		tb.Fatal(replayErr)
	}
	return replayCases
}

func replayMachines() []*arch.Machine {
	return append(arch.All(), arch.WideVec(), arch.NehalemNoVec())
}

// FuzzMeasureMatchesWalk checks that Measure, which replays an
// invocation whose start state repeats, returns exactly what walking
// every invocation returns. Its seed corpus, which a plain go test
// runs, is every machine in both modes at 1, 3 and 10 invocations,
// rotating through the differential corpus, plus every codelet of that
// corpus in both modes at the default invocation count.
func FuzzMeasureMatchesWalk(f *testing.F) {
	ms := replayMachines()
	i := 0
	for machine := range ms {
		for _, mode := range []Mode{ModeInApp, ModeStandalone} {
			for _, inv := range []uint8{1, 3, 10} {
				f.Add(uint8(i), uint8(machine), uint8(mode), inv, uint64(1))
				i++
			}
		}
	}
	var warm, flushed, varying int
	for codelet, rc := range replayCorpus(f) {
		for _, mode := range []Mode{ModeInApp, ModeStandalone} {
			f.Add(uint8(codelet), uint8(codelet%len(ms)), uint8(mode), uint8(0), uint64(2))
		}
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
	f.Fuzz(func(t *testing.T, codelet, machine, mode, invocations uint8, seed uint64) {
		cases := replayCorpus(t)
		rc := cases[int(codelet)%len(cases)]
		opts := Options{
			Machine:     ms[int(machine)%len(ms)],
			Mode:        Mode(mode % 2),
			Invocations: int(invocations % 13), // 0 = DefaultInvocations
			Seed:        seed,
			ProbeCycles: -1,
			NoiseAmp:    -1,
		}
		got, err := Measure(rc.p, rc.c, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := measureWalkingEvery(rc.p, rc.c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on %s, %s, %d invocations, seed %d:\n got %+v\nwant %+v",
				rc.c.Name, opts.Machine.Name, opts.Mode, len(want.Invocations), seed,
				got.Invocations, want.Invocations)
		}
	})
}

// Every invocation owns its counter slices, replayed ones included:
// callers rescale or pick invocations one by one.
func TestInvocationsOwnLevelSlices(t *testing.T) {
	p, c := streamTriad(4000)
	c.WarmInApp = false
	for _, mode := range []Mode{ModeInApp, ModeStandalone} {
		m, err := Measure(p, c, Options{Machine: arch.Reference(), Mode: mode, Invocations: 4, Seed: 1, ProbeCycles: -1, NoiseAmp: -1})
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

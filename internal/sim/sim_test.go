package sim

import (
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/ir"
)

// streamTriad builds a STREAM-like codelet a[i] = b[i] + s*c[i] over
// arrays of n doubles.
func streamTriad(n int64) (*ir.Program, *ir.Codelet) {
	p := ir.NewProgram("stream")
	p.SetParam("n", n)
	p.AddArray("a", ir.F64, ir.AV("n"))
	p.AddArray("b", ir.F64, ir.AV("n"))
	p.AddArray("c", ir.F64, ir.AV("n"))
	c := &ir.Codelet{
		Name: "triad", Invocations: 100,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{
				LHS: p.Ref("a", ir.V("i")),
				RHS: ir.Add(p.LoadE("b", ir.V("i")), ir.Mul(ir.CF(3), p.LoadE("c", ir.V("i")))),
			},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		panic(err)
	}
	return p, c
}

// smallCompute builds a compute-heavy codelet on an L1-resident array:
// many passes of divisions over a tiny vector.
func smallCompute(n, passes int64) (*ir.Program, *ir.Codelet) {
	p := ir.NewProgram("compute")
	p.SetParam("n", n)
	p.SetParam("p", passes)
	p.AddArray("a", ir.F64, ir.AV("n"))
	p.AddArray("b", ir.F64, ir.AV("n"))
	c := &ir.Codelet{
		Name: "divsweep", Invocations: 10,
		Loop: &ir.Loop{Var: "k", Lower: ir.AC(0), Upper: ir.AV("p"), Body: []ir.Stmt{
			&ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
				&ir.Assign{
					LHS: p.Ref("a", ir.V("i")),
					RHS: ir.Div(p.LoadE("b", ir.V("i")), ir.Add(p.LoadE("a", ir.V("i")), ir.CF(1.5))),
				},
			}},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		panic(err)
	}
	return p, c
}

// gatherKernel builds a random-gather codelet: s += v[idx[i]].
func gatherKernel(n, span int64) (*ir.Program, *ir.Codelet) {
	p := ir.NewProgram("gather")
	p.SetParam("n", n)
	p.SetParam("span", span)
	p.AddArray("v", ir.F64, ir.AV("span"))
	idx := p.AddArray("idx", ir.I64, ir.AV("n"))
	idx.Init = ir.IntInit{Kind: ir.IntInitUniform, Bound: ir.AV("span")}
	p.AddScalar("s", ir.F64)
	c := &ir.Codelet{
		Name: "gather", Invocations: 10,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{
				LHS: p.Ref("s"),
				RHS: ir.Add(p.LoadE("s"), p.LoadE("v", p.LoadE("idx", ir.V("i")))),
			},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		panic(err)
	}
	return p, c
}

func measure(t *testing.T, p *ir.Program, c *ir.Codelet, m *arch.Machine, mode Mode) *Measurement {
	t.Helper()
	res, err := Measure(p, c, Options{Machine: m, Mode: mode, Seed: 1})
	if err != nil {
		t.Fatalf("Measure(%s on %s): %v", c.Name, m.Name, err)
	}
	return res
}

func TestDatasetLayout(t *testing.T) {
	p, _ := streamTriad(1000)
	ds, err := BuildDataset(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string][2]int64{}
	for _, name := range []string{"a", "b", "c"} {
		base := ds.Base(name)
		if base%datasetAlign != 0 {
			t.Errorf("array %s base %d not aligned", name, base)
		}
		size := ds.SizeBytes(name)
		if size != 8000 {
			t.Errorf("array %s size = %d, want 8000", name, size)
		}
		for other, span := range seen {
			if base < span[0]+span[1] && span[0] < base+size {
				t.Errorf("arrays %s and %s overlap", name, other)
			}
		}
		seen[name] = [2]int64{base, size}
	}
}

func TestDatasetIntInit(t *testing.T) {
	p, _ := gatherKernel(1000, 500)
	ds, err := BuildDataset(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	data := ds.Ints("idx")
	if len(data) != 1000 {
		t.Fatalf("idx length = %d", len(data))
	}
	distinct := map[int64]bool{}
	for _, v := range data {
		if v < 0 || v >= 500 {
			t.Fatalf("index %d out of bound", v)
		}
		distinct[v] = true
	}
	if len(distinct) < 100 {
		t.Errorf("uniform init produced only %d distinct values", len(distinct))
	}
}

func TestDatasetModInit(t *testing.T) {
	p := ir.NewProgram("t")
	p.SetParam("n", 100)
	a := p.AddArray("x", ir.I64, ir.AV("n"))
	a.Init = ir.IntInit{Kind: ir.IntInitMod, Bound: ir.AC(7)}
	ds, err := BuildDataset(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ds.Ints("x") {
		if v != int64(i%7) {
			t.Fatalf("x[%d] = %d, want %d", i, v, i%7)
		}
	}
}

func TestMeasureDeterminism(t *testing.T) {
	p, c := streamTriad(20000)
	m1 := measure(t, p, c, arch.Nehalem(), ModeInApp)
	m2 := measure(t, p, c, arch.Nehalem(), ModeInApp)
	if m1.Seconds != m2.Seconds {
		t.Errorf("not deterministic: %g vs %g", m1.Seconds, m2.Seconds)
	}
}

func TestStreamingIsBandwidthBound(t *testing.T) {
	// Working set: 3 arrays x 8B x n. Choose n so WS greatly exceeds
	// every LLC (largest is Nehalem's scaled 768 KB).
	p, c := streamTriad(200000) // 4.8 MB
	for _, m := range arch.All() {
		res := measure(t, p, c, m, ModeInApp)
		ctr := res.Counters
		if ctr.BandwidthCycles < ctr.ComputeCycles {
			t.Errorf("%s: streaming triad compute-bound (bw %.0f < compute %.0f cycles)",
				m.Name, ctr.BandwidthCycles, ctr.ComputeCycles)
		}
		if ctr.MemAccesses == 0 {
			t.Errorf("%s: no memory traffic for streaming codelet", m.Name)
		}
	}
}

func TestStreamingSpeedTracksBandwidth(t *testing.T) {
	// On a bandwidth-bound codelet, machine time should roughly order
	// as 1 / absolute memory bandwidth: Nehalem fastest, Atom/Core2
	// slowest.
	p, c := streamTriad(200000)
	times := map[string]float64{}
	for _, m := range arch.All() {
		times[m.Name] = measure(t, p, c, m, ModeInApp).Seconds
	}
	if !(times["Nehalem"] < times["Core 2"] && times["Nehalem"] < times["Atom"]) {
		t.Errorf("bandwidth ordering violated: %v", times)
	}
	if times["Sandy Bridge"] >= times["Core 2"] {
		t.Errorf("Sandy Bridge slower than Core 2 on streaming: %v", times)
	}
}

func TestComputeBoundFollowsClockAndDivider(t *testing.T) {
	p, c := smallCompute(128, 400) // 1 KB working set, div-heavy
	neh := measure(t, p, c, arch.Nehalem(), ModeInApp)
	if neh.Counters.ComputeCycles < neh.Counters.BandwidthCycles {
		t.Fatalf("div sweep not compute bound (compute %.0f, bw %.0f)",
			neh.Counters.ComputeCycles, neh.Counters.BandwidthCycles)
	}
	atom := measure(t, p, c, arch.Atom(), ModeInApp)
	c2 := measure(t, p, c, arch.Core2(), ModeInApp)
	// Atom's divider makes it several times slower than the reference.
	if atom.Seconds < 3*neh.Seconds {
		t.Errorf("Atom div sweep only %.2fx slower", atom.Seconds/neh.Seconds)
	}
	// Core 2 runs compute-bound code about as fast or faster (clock).
	if c2.Seconds > 1.3*neh.Seconds {
		t.Errorf("Core 2 compute-bound %.2fx slower than reference", c2.Seconds/neh.Seconds)
	}
}

func TestGatherPunishesAtom(t *testing.T) {
	// Random gathers over a memory-resident table expose full miss
	// latency on the in-order Atom but are mostly hidden on Nehalem.
	p, c := gatherKernel(100000, 400000)
	neh := measure(t, p, c, arch.Nehalem(), ModeInApp)
	atom := measure(t, p, c, arch.Atom(), ModeInApp)
	slowdown := atom.Seconds / neh.Seconds
	if slowdown < 3 {
		t.Errorf("Atom gather slowdown = %.2fx, want > 3x", slowdown)
	}
	if atom.Counters.ExposedLatCycles <= neh.Counters.ExposedLatCycles {
		t.Error("in-order Atom does not expose more latency than Nehalem")
	}
}

func TestInAppColdVsStandaloneWarm(t *testing.T) {
	// A single-sweep codelet whose working set fits the LLC: in-app
	// (cold every invocation) must be slower than the standalone
	// replay (dump preloaded, invocations back to back).
	p, c := streamTriad(8000) // 192 KB, fits Nehalem L3 (768 KB)
	inApp := measure(t, p, c, arch.Nehalem(), ModeInApp)
	standalone := measure(t, p, c, arch.Nehalem(), ModeStandalone)
	if standalone.Seconds >= inApp.Seconds {
		t.Errorf("standalone (%.3g s) not faster than cold in-app (%.3g s)",
			standalone.Seconds, inApp.Seconds)
	}
	if standalone.Counters.MemAccesses >= inApp.Counters.MemAccesses {
		t.Error("standalone replay did not reduce memory traffic")
	}
}

func TestHugeWorkingSetIsWellBehaved(t *testing.T) {
	// When the working set dwarfs every cache, cold vs warm makes no
	// difference: extraction preserves behavior (all NR codelets are
	// well-behaved in the paper).
	p, c := streamTriad(200000)
	for _, m := range arch.All() {
		inApp := measure(t, p, c, m, ModeInApp)
		standalone := measure(t, p, c, m, ModeStandalone)
		rel := (standalone.Seconds - inApp.Seconds) / inApp.Seconds
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.10 {
			t.Errorf("%s: streaming codelet ill-behaved: standalone differs %.1f%%", m.Name, rel*100)
		}
	}
}

func TestDatasetVariationMakesIllBehaved(t *testing.T) {
	p, c := streamTriad(100000)
	c.DatasetVariation = 0.35
	c.VaryParam = "n"
	inApp := measure(t, p, c, arch.Nehalem(), ModeInApp)
	standalone := measure(t, p, c, arch.Nehalem(), ModeStandalone)
	// Standalone replays the first (full-size) invocation; the in-app
	// median saw shrunken datasets, so standalone overestimates.
	if standalone.Seconds < 1.10*inApp.Seconds {
		t.Errorf("dataset variation not detected: standalone %.3g vs in-app %.3g",
			standalone.Seconds, inApp.Seconds)
	}
}

func TestContextSensitiveMakesIllBehaved(t *testing.T) {
	p, c := streamTriad(100000)
	c.ContextSensitive = true
	inApp := measure(t, p, c, arch.Nehalem(), ModeInApp)
	standalone := measure(t, p, c, arch.Nehalem(), ModeStandalone)
	if standalone.Seconds <= inApp.Seconds {
		t.Error("context-sensitive codelet extracted without slowdown")
	}
}

func TestProbeOverheadHurtsShortCodelets(t *testing.T) {
	pShort, cShort := streamTriad(2000)
	pLong, cLong := streamTriad(200000)
	short := measure(t, pShort, cShort, arch.Nehalem(), ModeInApp)
	long := measure(t, pLong, cLong, arch.Nehalem(), ModeInApp)
	shortShare := short.Counters.ProbeCycles / short.Counters.Cycles
	longShare := long.Counters.ProbeCycles / long.Counters.Cycles
	if shortShare <= longShare {
		t.Errorf("probe share: short %.3f <= long %.3f", shortShare, longShare)
	}
}

func TestMeasurementCountersConsistent(t *testing.T) {
	p, c := streamTriad(50000)
	res := measure(t, p, c, arch.SandyBridge(), ModeInApp)
	ctr := res.Counters
	if ctr.Ops.FPOps() == 0 {
		t.Error("no FP ops counted")
	}
	if ctr.MemLoads == 0 || ctr.MemStores == 0 {
		t.Error("no memory references counted")
	}
	if len(ctr.LevelHits) != 3 {
		t.Errorf("level counters = %d, want 3 for Sandy Bridge", len(ctr.LevelHits))
	}
	if ctr.Seconds <= 0 || ctr.Cycles <= 0 {
		t.Error("non-positive time")
	}
	if res.WorkingSetBytes != 3*50000*8 {
		t.Errorf("working set = %d", res.WorkingSetBytes)
	}
}

func TestVectorOpsCounted(t *testing.T) {
	p, c := streamTriad(50000)
	res := measure(t, p, c, arch.Nehalem(), ModeInApp)
	if res.Counters.VecFPOps == 0 {
		t.Error("vectorizable triad reported no vector FP ops")
	}
	// Forcing scalar code must zero the vector op counter.
	c.Loop.Body[0].(*ir.Assign).Hint = ir.VecNever
	res2 := measure(t, p, c, arch.Nehalem(), ModeInApp)
	if res2.Counters.VecFPOps != 0 {
		t.Error("VecNever codelet reported vector FP ops")
	}
	if res2.Seconds < res.Seconds {
		t.Error("scalar code faster than vector code")
	}
}

func TestMedianOverInvocations(t *testing.T) {
	p, c := streamTriad(30000)
	res := measure(t, p, c, arch.Nehalem(), ModeInApp)
	if len(res.Invocations) != DefaultInvocations {
		t.Fatalf("invocations = %d", len(res.Invocations))
	}
	lo, hi := res.Invocations[0].Seconds, res.Invocations[0].Seconds
	for _, inv := range res.Invocations {
		if inv.Seconds < lo {
			lo = inv.Seconds
		}
		if inv.Seconds > hi {
			hi = inv.Seconds
		}
	}
	if res.Seconds < lo || res.Seconds > hi {
		t.Errorf("median %g outside [%g, %g]", res.Seconds, lo, hi)
	}
}

// TestPickMedian pins the one median rule every measurement layer
// shares: Seconds is the median over the kept invocations, Counters the
// kept invocation closest to it, the lowest index on ties.
func TestPickMedian(t *testing.T) {
	for _, c := range []struct {
		name    string
		times   []float64
		keep    []int
		seconds float64
		counter int
	}{
		{name: "all, odd", times: []float64{3, 1, 2}, seconds: 2, counter: 2},
		{name: "all, tie", times: []float64{1, 3, 2, 4}, seconds: 2.5, counter: 1},
		{name: "kept subset, tie", times: []float64{1, 100, 3, 5, 4}, keep: []int{0, 2, 3, 4}, seconds: 3.5, counter: 2},
		{name: "kept subset, one", times: []float64{7, 100}, keep: []int{1}, seconds: 100, counter: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			meas := &Measurement{}
			for i, s := range c.times {
				meas.Invocations = append(meas.Invocations, Invocation{
					Index: i, Seconds: s, Counters: Counters{Seconds: s, Cycles: float64(i)},
				})
			}
			meas.PickMedian(c.keep)
			if meas.Seconds != c.seconds {
				t.Errorf("Seconds = %g, want %g", meas.Seconds, c.seconds)
			}
			if got := int(meas.Counters.Cycles); got != c.counter {
				t.Errorf("Counters from invocation %d, want %d", got, c.counter)
			}
		})
	}
}

func TestTriangularLoopRuns(t *testing.T) {
	p := ir.NewProgram("tri")
	p.SetParam("n", 300)
	p.AddArray("m", ir.F64, ir.AV("n"), ir.AV("n"))
	p.AddScalar("s", ir.F64)
	c := &ir.Codelet{
		Name: "lowerhalf", Invocations: 5,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Loop{Var: "j", Lower: ir.AC(0), Upper: ir.AV("i"), Body: []ir.Stmt{
				&ir.Assign{LHS: p.Ref("s"), RHS: ir.Add(p.LoadE("s"), p.LoadE("m", ir.V("i"), ir.V("j")))},
			}},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		t.Fatal(err)
	}
	res := measure(t, p, c, arch.Core2(), ModeInApp)
	// Triangular loop touches n*(n-1)/2 elements.
	wantLoads := float64(300 * 299 / 2)
	if res.Counters.MemLoads != wantLoads {
		t.Errorf("loads = %g, want %g", res.Counters.MemLoads, wantLoads)
	}
}

func TestScatterHistogramRuns(t *testing.T) {
	p := ir.NewProgram("is")
	p.SetParam("n", 50000)
	p.SetParam("b", 1024)
	keys := p.AddArray("key", ir.I64, ir.AV("n"))
	keys.Init = ir.IntInit{Kind: ir.IntInitUniform, Bound: ir.AV("b")}
	p.AddArray("hist", ir.I64, ir.AV("b"))
	c := &ir.Codelet{
		Name: "hist", Invocations: 10,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{
				LHS: p.Ref("hist", p.LoadE("key", ir.V("i"))),
				RHS: ir.Add(p.LoadE("hist", p.LoadE("key", ir.V("i"))), ir.CI(1)),
			},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		t.Fatal(err)
	}
	res := measure(t, p, c, arch.Atom(), ModeInApp)
	if res.Seconds <= 0 {
		t.Fatal("no time simulated")
	}
	if res.Counters.VecFPOps != 0 {
		t.Error("scatter kernel vectorized")
	}
}

package sim

import (
	"testing"
	"testing/quick"

	"fgbs/internal/arch"
	"fgbs/internal/ir"
	"fgbs/internal/rng"
)

// randomKernel builds a small random element-wise kernel: a mix of
// adds/muls over 1-3 arrays, optionally with a reduction.
func randomKernel(seed uint64) (*ir.Program, *ir.Codelet) {
	r := rng.New(seed)
	p := ir.NewProgram("q")
	n := int64(20000 + r.Intn(30000))
	p.SetParam("n", n)
	arrays := []string{"a", "b", "c"}[:1+r.Intn(3)]
	for _, name := range arrays {
		p.AddArray(name, ir.F64, ir.AV("n"))
	}
	rhs := p.LoadE(arrays[0], ir.V("i"))
	for k := 0; k < 1+r.Intn(4); k++ {
		operand := p.LoadE(arrays[r.Intn(len(arrays))], ir.V("i"))
		if r.Bool(0.5) {
			rhs = ir.Add(rhs, operand)
		} else {
			rhs = ir.Mul(rhs, operand)
		}
	}
	c := &ir.Codelet{
		Name: "rand", Invocations: 1 + r.Intn(50),
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref(arrays[0], ir.V("i")), RHS: rhs},
		}},
	}
	p.MustAddCodelet(c)
	return p, c
}

// Property: for random kernels on every machine, measurements are
// positive, counters are self-consistent, and repeated measurement is
// identical.
func TestMeasurementInvariants(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		p, c := randomKernel(seed)
		m := arch.All()[int(seed%4)]
		r1, err := Measure(p, c, Options{Machine: m, Seed: seed})
		if err != nil {
			return false
		}
		r2, err := Measure(p, c, Options{Machine: m, Seed: seed})
		if err != nil {
			return false
		}
		ctr := r1.Counters
		if r1.Seconds <= 0 || ctr.Cycles <= 0 || ctr.Instructions <= 0 {
			return false
		}
		if ctr.Ops.FPOps() < 0 || ctr.MemLoads < 0 || ctr.MemStores < 0 {
			return false
		}
		// L1 accesses equal the memory-visible references.
		if len(ctr.LevelHits) > 0 {
			l1 := ctr.LevelHits[0] + ctr.LevelMisses[0]
			if float64(l1) < ctr.MemLoads+ctr.MemStores-0.5 {
				return false
			}
		}
		// Cost components never exceed the total.
		if ctr.ComputeCycles > ctr.Cycles*1.05 {
			return false
		}
		return r1.Seconds == r2.Seconds
	}, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: a slower clock means more seconds for the same cycles —
// measured seconds scale consistently across machines for a pure
// compute kernel.
func TestSecondsConsistentWithCycles(t *testing.T) {
	p, c := randomKernel(42)
	for _, m := range arch.All() {
		res, err := Measure(p, c, Options{Machine: m, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := m.CyclesToSeconds(res.Counters.Cycles)
		if diff := res.Counters.Seconds - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s: seconds %.12g != cycles/freq %.12g", m.Name, res.Counters.Seconds, want)
		}
	}
}

func TestZeroTripLoop(t *testing.T) {
	p := ir.NewProgram("t")
	p.SetParam("n", 100)
	p.AddArray("a", ir.F64, ir.AV("n"))
	c := &ir.Codelet{
		Name: "empty", Invocations: 1,
		Loop: &ir.Loop{Var: "i", Lower: ir.AV("n"), Upper: ir.AC(0), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")), RHS: ir.CF(0)},
		}},
	}
	p.MustAddCodelet(c)
	res, err := Measure(p, c, Options{Machine: arch.Nehalem(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MemLoads != 0 || res.Counters.MemStores != 0 {
		t.Error("zero-trip loop touched memory")
	}
	if res.Seconds <= 0 {
		t.Error("probe overhead missing for empty invocation")
	}
}

func TestMeasureValidatesOptions(t *testing.T) {
	p, c := randomKernel(1)
	if _, err := Measure(p, c, Options{}); err == nil {
		t.Error("nil machine accepted")
	}
}

func TestSingleInvocation(t *testing.T) {
	p, c := randomKernel(2)
	res, err := Measure(p, c, Options{Machine: arch.Core2(), Invocations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Invocations) != 1 {
		t.Fatalf("invocations = %d", len(res.Invocations))
	}
	if res.Seconds != res.Invocations[0].Seconds {
		t.Error("median of one invocation differs from it")
	}
}

// Property: the noise amplitude bounds each invocation's deviation
// from its noise-free cycle count (the cost model's sum), and the
// noise is on.
func TestNoiseBounded(t *testing.T) {
	p, c := randomKernel(4)
	res, err := Measure(p, c, Options{Machine: arch.Atom(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	noisy := false
	for _, inv := range res.Invocations {
		ctr := inv.Counters
		clean := max(ctr.ComputeCycles, ctr.BandwidthCycles) + ctr.ExposedLatCycles + ctr.ProbeCycles
		rel := ctr.Cycles/clean - 1
		if rel > DefaultNoiseAmp+1e-12 || rel < -DefaultNoiseAmp-1e-12 {
			t.Errorf("invocation %d: noise %.4f exceeds the amplitude %g", inv.Index, rel, DefaultNoiseAmp)
		}
		noisy = noisy || rel != 0
	}
	if !noisy {
		t.Error("no invocation carries measurement noise")
	}
}

func TestWorkingSetIndependentOfMachine(t *testing.T) {
	p, c := randomKernel(5)
	var ws int64 = -1
	for _, m := range arch.All() {
		res, err := Measure(p, c, Options{Machine: m, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ws == -1 {
			ws = res.WorkingSetBytes
		} else if ws != res.WorkingSetBytes {
			t.Errorf("%s: working set %d != %d", m.Name, res.WorkingSetBytes, ws)
		}
	}
}

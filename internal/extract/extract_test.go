package extract

import (
	"testing"

	"fgbs/internal/arch"
	"fgbs/internal/ir"
	"fgbs/internal/sim"
)

func triad(n int64) (*ir.Program, *ir.Codelet) {
	p := ir.NewProgram("t")
	p.SetParam("n", n)
	p.AddArray("a", ir.F64, ir.AV("n"))
	p.AddArray("b", ir.F64, ir.AV("n"))
	c := &ir.Codelet{
		Name: "copyadd", Invocations: 200,
		Loop: &ir.Loop{Var: "i", Lower: ir.AC(0), Upper: ir.AV("n"), Body: []ir.Stmt{
			&ir.Assign{LHS: p.Ref("a", ir.V("i")),
				RHS: ir.Add(p.LoadE("b", ir.V("i")), ir.CF(1))},
		}},
	}
	if err := p.AddCodelet(c); err != nil {
		panic(err)
	}
	return p, c
}

// measure times c on m the way the profile step does: the standalone
// (extracted, dump-reload) run or the original in-application one.
func measure(t *testing.T, p *ir.Program, c *ir.Codelet, m *arch.Machine, mode sim.Mode) *sim.Measurement {
	t.Helper()
	meas, err := sim.Measure(p, c, sim.Options{Machine: m, Mode: mode, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return meas
}

func TestBenchSecondsRule(t *testing.T) {
	bench := func(sa float64) float64 { return BenchSeconds(sa, MinBenchSeconds, MinInvocations) }
	// Long invocation: floor of 10 invocations.
	if got, want := bench(MinBenchSeconds), MinInvocations*MinBenchSeconds; got != want {
		t.Errorf("long codelet bench time = %g, want %g", got, want)
	}
	// Short invocation: enough invocations to fill the time floor.
	short := MinBenchSeconds / 100
	if got, want := bench(short), 100*short; got != want {
		t.Errorf("short codelet bench time = %g, want %g (100 invocations)", got, want)
	}
	// Degenerate zero time.
	if got := bench(0); got != 0 {
		t.Errorf("zero-time bench time = %g", got)
	}
	// The thresholds are the caller's: a 10x floor needs 10x the
	// invocations once it binds.
	if got, want := BenchSeconds(short, 10*MinBenchSeconds, MinInvocations), 1000*short; got != want {
		t.Errorf("strict rule bench time = %g, want %g (1000 invocations)", got, want)
	}
}

func TestIllBehaved(t *testing.T) {
	if IllBehaved(1.05, 1.0) {
		t.Error("5% gap flagged ill-behaved")
	}
	if !IllBehaved(1.2, 1.0) {
		t.Error("20% gap not flagged")
	}
	if !IllBehaved(0.5, 1.0) {
		t.Error("fast standalone not flagged")
	}
	if !IllBehaved(1, 0) {
		t.Error("zero in-app time not flagged")
	}
}

func TestExtractProducesMicrobenchmark(t *testing.T) {
	p, c := triad(200000)
	sa := measure(t, p, c, arch.Reference(), sim.ModeStandalone)
	bench := BenchSeconds(sa.Seconds, MinBenchSeconds, MinInvocations)
	if bench < MinBenchSeconds*0.99 {
		t.Errorf("bench time %.3g below the floor", bench)
	}
	if bench < MinInvocations*sa.Seconds {
		t.Errorf("bench time %.3g below %d invocations", bench, MinInvocations)
	}
	// The dump holds the codelet's working set: both arrays.
	if sa.WorkingSetBytes != 2*200000*8 {
		t.Errorf("dump bytes = %d", sa.WorkingSetBytes)
	}
}

func TestExtractionReductionVsOriginal(t *testing.T) {
	// The whole point: benchmarking the microbenchmark is much cheaper
	// than the codelet's share of the application run.
	p, c := triad(200000)
	m := arch.Reference()
	micro := BenchSeconds(measure(t, p, c, m, sim.ModeStandalone).Seconds, MinBenchSeconds, MinInvocations)
	originalCost := float64(c.Invocations) * measure(t, p, c, m, sim.ModeInApp).Seconds
	if micro >= originalCost/2 {
		t.Errorf("no benchmarking reduction: micro %.3g vs original %.3g", micro, originalCost)
	}
}

func TestWellBehavedStreamingCodelet(t *testing.T) {
	p, c := triad(200000) // working set streams past every cache
	m := arch.Reference()
	sa := measure(t, p, c, m, sim.ModeStandalone)
	inApp := measure(t, p, c, m, sim.ModeInApp)
	if IllBehaved(sa.Seconds, inApp.Seconds) {
		t.Errorf("streaming codelet ill-behaved: standalone %.4g vs in-app %.4g",
			sa.Seconds, inApp.Seconds)
	}
}

func TestContextSensitiveDetectedIllBehaved(t *testing.T) {
	p, c := triad(200000)
	c.ContextSensitive = true
	m := arch.Reference()
	sa := measure(t, p, c, m, sim.ModeStandalone)
	inApp := measure(t, p, c, m, sim.ModeInApp)
	if !IllBehaved(sa.Seconds, inApp.Seconds) {
		t.Error("context-sensitive codelet passed the screening")
	}
}

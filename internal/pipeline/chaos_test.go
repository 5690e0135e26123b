package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"fgbs/internal/fault"
	"fgbs/internal/ir"
	"fgbs/internal/measure"
)

// chaosSeed pins every chaos schedule; the ci.sh chaos gate depends on
// these tests being replayable.
const chaosSeed = 20140215

func chaosSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// chaosSuite is tinySuite scaled down (smaller arrays, just enough
// invocations for the median/MAD machinery): the chaos tests rebuild
// profiles many times and run under -race in the ci.sh chaos gate, so
// each build must stay cheap on a single-core runner. Every chaos
// comparison is against a clean build of this same suite, never
// against tinyProfile.
func chaosSuite() []*ir.Program {
	progs := tinySuite()
	for _, p := range progs {
		p.SetParam("n", 25000)
		for _, c := range p.Codelets {
			c.Invocations = 12
		}
	}
	return progs
}

var (
	chaosCleanOnce sync.Once
	chaosCleanProf *Profile
	chaosCleanErr  error
)

// chaosClean is the fault-free, measurer-free baseline profile of
// chaosSuite, built once per test binary.
func chaosClean(t *testing.T) *Profile {
	t.Helper()
	chaosCleanOnce.Do(func() {
		chaosCleanProf, chaosCleanErr = NewProfile(chaosSuite(), Options{Seed: 1})
	})
	if chaosCleanErr != nil {
		t.Fatal(chaosCleanErr)
	}
	return chaosCleanProf
}

// chaosMeasurer composes the tentpole stack: robust protocol over a
// deterministic fault injector over the raw simulator.
func chaosMeasurer(p *fault.Profile, cfg measure.Config) fault.Measurer {
	if cfg.Sleep == nil {
		cfg.Sleep = chaosSleep
	}
	return measure.New(fault.NewInjector(p), cfg)
}

// TestNoFaultProfileIsByteIdentical is the regression guard of the
// acceptance criteria: running the full measurement stack with an
// empty fault profile and a transparent robust config serializes
// byte-for-byte like the fault-unaware pipeline.
func TestNoFaultProfileIsByteIdentical(t *testing.T) {
	clean := chaosClean(t)
	transparent, err := NewProfile(chaosSuite(), Options{
		Seed:     1,
		Measurer: chaosMeasurer(&fault.Profile{}, measure.Config{Invocations: -1, MADK: -1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if transparent.Degraded() {
		t.Error("clean run reported degraded")
	}
	var a, b bytes.Buffer
	if err := clean.SaveJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := transparent.SaveJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("transparent measurement stack changed the serialized profile")
	}
}

// TestChaosTransientSchedulesConverge injects flaky targets and a
// machine-down episode everywhere; with retries the profile must be
// byte-identical to a fault-free run of the same robust protocol.
func TestChaosTransientSchedulesConverge(t *testing.T) {
	faults := &fault.Profile{Seed: chaosSeed, Rules: []fault.Rule{
		{Machine: "Atom", TransientRate: 0.3, DownFor: 2},
		{TransientRate: 0.2},
	}}
	cfg := measure.Config{MaxAttempts: 12}
	flaky, err := NewProfile(chaosSuite(), Options{Seed: 1, Measurer: chaosMeasurer(faults, cfg)})
	if err != nil {
		t.Fatalf("transient schedule did not converge: %v", err)
	}
	if flaky.Degraded() {
		t.Fatal("transient faults left permanent failure markers")
	}
	calm, err := NewProfile(chaosSuite(), Options{Seed: 1, Measurer: chaosMeasurer(&fault.Profile{}, cfg)})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := flaky.SaveJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := calm.SaveJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("retried transients changed measurement values")
	}
}

// TestChaosBoundedNoiseStaysAccurate checks the headline robustness
// claim: under bounded multiplicative noise plus occasional outlier
// invocations, the robust protocol keeps subset-prediction error
// within 2x of the clean error (plus a small absolute floor for
// near-zero clean errors).
func TestChaosBoundedNoiseStaysAccurate(t *testing.T) {
	clean := chaosClean(t)
	cleanSub, err := clean.Subset(tinyMask, 4)
	if err != nil {
		t.Fatal(err)
	}
	faults := &fault.Profile{Seed: chaosSeed, Rules: []fault.Rule{
		{NoiseAmp: 0.05, OutlierRate: 0.1, OutlierScale: 10, TransientRate: 0.1},
	}}
	noisy, err := NewProfile(chaosSuite(), Options{Seed: 1, Measurer: chaosMeasurer(faults, measure.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	noisySub, err := noisy.Subset(tinyMask, 4)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range clean.Targets {
		cleanEv, err := clean.Evaluate(cleanSub, tt)
		if err != nil {
			t.Fatal(err)
		}
		noisyEv, err := noisy.Evaluate(noisySub, tt)
		if err != nil {
			t.Fatal(err)
		}
		if noisyEv.Excluded != 0 {
			t.Errorf("%s: bounded noise excluded %d codelets", clean.Targets[tt].Name, noisyEv.Excluded)
		}
		bound := 2*cleanEv.Summary.Median + 0.05
		if noisyEv.Summary.Median > bound {
			t.Errorf("%s: noisy median error %.4f exceeds bound %.4f (clean %.4f)",
				clean.Targets[tt].Name, noisyEv.Summary.Median, bound, cleanEv.Summary.Median)
		}
	}
}

// TestChaosPermanentFailureDegradesLoudly breaks one codelet outright:
// the profile must still build, mark the loss, screen the codelet out
// of representative selection, and exclude it from error statistics —
// visibly, not silently.
func TestChaosPermanentFailureDegradesLoudly(t *testing.T) {
	faults := &fault.Profile{Seed: chaosSeed, Rules: []fault.Rule{
		{Codelet: "beta_gather", PermanentRate: 1},
	}}
	prof, err := NewProfile(chaosSuite(), Options{Seed: 1, Measurer: chaosMeasurer(faults, measure.Config{})})
	if err != nil {
		t.Fatalf("one broken codelet aborted the profile: %v", err)
	}
	if !prof.Degraded() {
		t.Fatal("broken codelet left no failure markers")
	}
	broken := -1
	for i, c := range prof.Codelets {
		if c.Name == "beta_gather" {
			broken = i
		}
	}
	if broken < 0 {
		t.Fatal("fixture lost beta_gather")
	}
	if !prof.RefFailed[broken] || !prof.IllBehaved[broken] {
		t.Errorf("broken codelet not screened: refFailed=%v ill=%v",
			prof.RefFailed[broken], prof.IllBehaved[broken])
	}

	sub, err := prof.Subset(tinyMask, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sub.Selection.Reps {
		if r == broken {
			t.Error("broken codelet chosen as representative")
		}
	}
	ev, err := prof.Evaluate(sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Excluded == 0 {
		t.Error("no codelets excluded despite a permanent failure")
	}
	if ev.Errors[broken] != -1 {
		t.Errorf("excluded codelet error = %g, want the -1 marker", ev.Errors[broken])
	}
	degradedApps := 0
	for _, a := range ev.Apps {
		if a.Degraded {
			degradedApps++
			if a.ErrorFrac != -1 {
				t.Errorf("degraded app %s has error %g, want -1", a.Name, a.ErrorFrac)
			}
		}
	}
	if degradedApps != 1 {
		t.Errorf("degraded apps = %d, want exactly beta", degradedApps)
	}
	if _, err := json.Marshal(ev); err != nil {
		t.Errorf("degraded eval not JSON-marshalable: %v", err)
	}

	// Failure markers survive the encode/decode round trip.
	back, err := decodeSuite(t, encodeProfile(t, prof), chaosSuite())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Degraded() || !back.RefFailed[broken] {
		t.Error("failure markers lost in serialization round trip")
	}
}

// TestChaosTargetOutageIsVisible downs one target machine completely:
// evaluation there reports everything excluded (zero summary, -1
// markers), while the other targets stay clean.
func TestChaosTargetOutageIsVisible(t *testing.T) {
	faults := &fault.Profile{Seed: chaosSeed, Rules: []fault.Rule{
		{Machine: "Atom", PermanentRate: 1},
	}}
	prof, err := NewProfile(chaosSuite(), Options{Seed: 1, Measurer: chaosMeasurer(faults, measure.Config{})})
	if err != nil {
		t.Fatalf("downed target aborted the profile: %v", err)
	}
	if !prof.Degraded() {
		t.Fatal("target outage left no markers")
	}
	sub, err := prof.Subset(tinyMask, 4)
	if err != nil {
		t.Fatal(err)
	}
	atom, err := prof.TargetIndex("Atom")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := prof.Evaluate(sub, atom)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Excluded != prof.N() {
		t.Errorf("excluded = %d, want all %d", ev.Excluded, prof.N())
	}
	if ev.Summary.Median != 0 || ev.Summary.Max != 0 {
		t.Errorf("all-excluded summary not zeroed: %+v", ev.Summary)
	}
	if _, err := json.Marshal(ev); err != nil {
		t.Errorf("outage eval not JSON-marshalable: %v", err)
	}
	for tt := range prof.Targets {
		if tt == atom {
			continue
		}
		other, err := prof.Evaluate(sub, tt)
		if err != nil {
			t.Fatal(err)
		}
		if other.Excluded != 0 {
			t.Errorf("%s: healthy target excluded %d codelets", prof.Targets[tt].Name, other.Excluded)
		}
	}
}

package pipeline

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fgbs/internal/corpus"
	"fgbs/internal/fault"
	"fgbs/internal/ir"
	"fgbs/internal/measure"
	"fgbs/internal/sim"
	"fgbs/internal/suites/nas"
)

// TestSweepKWorkersMatchSerial is the determinism gate for the
// parallel sweep: at every worker count the staged, fanned-out result
// must be identical — field for field — to the serial monolith loop.
// Each worker count gets a fresh stage store, so its stages compute
// under the fan-out instead of replaying the previous run. Runs under
// -race.
func TestSweepKWorkersMatchSerial(t *testing.T) {
	prof := tinyProfile(t)
	want, err := prof.SweepKContext(context.Background(), tinyMask, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		got, err := stagedFixture(t).SweepK(context.Background(), tinyMask, 2, 7, workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: parallel sweep diverged from serial\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestRandomClusteringsWorkersMatchSerial: the staged random
// baseline's envelope must equal the serial monolith's at every worker
// count, because every trial's partition is a pure function of (seed,
// trial index).
func TestRandomClusteringsWorkersMatchSerial(t *testing.T) {
	prof := tinyProfile(t)
	cases := []struct {
		k, trials int
		seed      uint64
	}{
		{2, 10, 1},
		{3, 25, 7},
		{4, 40, 99},
	}
	for _, c := range cases {
		want, err := prof.RandomClusterings(tinyMask, c.k, c.trials, 0, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := stagedFixture(t).RandomClusterings(context.Background(), tinyMask, c.k, c.trials, 0, c.seed, workers, nil)
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", c.k, workers, err)
			}
			if got != want {
				t.Errorf("k=%d trials=%d workers=%d: parallel %+v != serial %+v",
					c.k, c.trials, workers, got, want)
			}
		}
	}
}

// TestTrialSeedsStable: the per-trial seed derivation is part of the
// experiment's reproducibility contract — a longer run must extend,
// not reshuffle, a shorter run's seeds.
func TestTrialSeedsStable(t *testing.T) {
	short := trialSeeds(42, 10)
	long := trialSeeds(42, 100)
	for i, s := range short {
		if long[i] != s {
			t.Fatalf("seed %d changed with trial count: %d != %d", i, long[i], s)
		}
	}
	other := trialSeeds(43, 10)
	same := 0
	for i := range short {
		if short[i] == other[i] {
			same++
		}
	}
	if same == len(short) {
		t.Error("different base seeds produced identical trial seeds")
	}
}

// TestParallelProgressReachesTotal: the progress callback must end at
// done == total on success, whatever the interleaving.
func TestParallelProgressReachesTotal(t *testing.T) {
	st := stagedFixture(t)
	var mu sync.Mutex
	var lastDone, lastTotal, calls int
	progress := func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > lastDone {
			lastDone = done
		}
		lastTotal = total
	}
	if _, err := st.RandomClusterings(context.Background(), tinyMask, 3, 30, 0, 7, 4, progress); err != nil {
		t.Fatal(err)
	}
	if lastDone != 30 || lastTotal != 30 {
		t.Errorf("progress ended at %d/%d, want 30/30", lastDone, lastTotal)
	}
	if calls < 2 {
		t.Errorf("progress called %d times, want per-unit reporting", calls)
	}
}

// TestParallelCancellation: a canceled context aborts both runners
// with the context's error.
func TestParallelCancellation(t *testing.T) {
	prof := tinyProfile(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := stagedFixture(t)
	if _, err := st.SweepK(ctx, tinyMask, 2, 7, 4, nil); err != context.Canceled {
		t.Errorf("sweep err = %v, want context.Canceled", err)
	}
	if _, err := st.RandomClusterings(ctx, tinyMask, 3, 50, 0, 7, 4, nil); err != context.Canceled {
		t.Errorf("randbaseline err = %v, want context.Canceled", err)
	}
	if _, err := prof.SweepKContext(ctx, tinyMask, 2, 7); err != context.Canceled {
		t.Errorf("serial sweep err = %v, want context.Canceled", err)
	}
	if _, err := prof.PerAppSubsetting(ctx, tinyMask, 2); err != context.Canceled {
		t.Errorf("per-app err = %v, want context.Canceled", err)
	}
}

// TestProfileWorkersByteIdentical: profiling fans codelets out over
// Options.Workers, and every measurement lands in its codelet's slot,
// so the encoded profile must not depend on the worker count — neither
// on a clean build nor under a fault-aware measurer, where the
// per-index failure markers must land identically too.
func TestProfileWorkersByteIdentical(t *testing.T) {
	faults := &fault.Profile{Seed: chaosSeed, Rules: []fault.Rule{
		{Codelet: "beta_gather", PermanentRate: 1},
		{Machine: "Atom", Codelet: "alpha_copy", PermanentRate: 1},
	}}
	for _, c := range []struct {
		name     string
		measurer fault.Measurer
	}{
		{"clean", nil},
		{"chaos", chaosMeasurer(faults, measure.Config{})},
	} {
		var want []byte
		for _, workers := range []int{1, 4} {
			prof, err := NewProfile(tinySuite(), Options{Seed: 1, Workers: workers, Measurer: c.measurer})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if c.measurer != nil && !prof.Degraded() {
				t.Fatalf("%s workers=%d: no failure markers", c.name, workers)
			}
			got, err := prof.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: workers=%d profile bytes differ from workers=1", c.name, workers)
			}
		}
	}
}

// perMachine hides its Measurer's group call, so the pipeline asks it
// once per machine: the oracle the grouped measurement path must match.
type perMachine struct{ m fault.Measurer }

func (pm perMachine) Measure(ctx context.Context, p *ir.Program, c *ir.Codelet, opts sim.Options) (*sim.Measurement, error) {
	return pm.m.Measure(ctx, p, c, opts)
}

// The profile measures each codelet in each mode on every machine with
// one group call. Asking the same stack once per machine must give the
// same profile bytes at any worker count: for the clean simulator, and
// for the robust-over-injector stack under the reference fault profile,
// whose failures mark the profile degraded. Each chaos build gets a
// fresh stack. Checked on the syn-smoke corpus and, without -race
// (under which its builds take minutes), on NAS.
func TestGroupedProfileMatchesPerMachine(t *testing.T) {
	syn, err := corpus.BuildSuite("syn-smoke")
	if err != nil {
		t.Fatal(err)
	}
	faults, err := fault.Load(filepath.Join("..", "fault", "testdata", "reference.json"))
	if err != nil {
		t.Fatal(err)
	}
	type suite struct {
		name  string
		progs []*ir.Program
	}
	suites := []suite{{"syn-smoke", syn}}
	if !raceDetectorEnabled {
		suites = append(suites, suite{"nas", nas.Suite()})
	}
	legs := []struct {
		name  string
		stack func() fault.Measurer
	}{
		{"clean", func() fault.Measurer { return nil }},
		{"chaos", func() fault.Measurer { return chaosMeasurer(faults, measure.Config{}) }},
	}
	for _, suite := range suites {
		for _, leg := range legs {
			var want []byte
			for _, workers := range []int{1, 4} {
				for _, grouped := range []bool{true, false} {
					measurer := leg.stack()
					if !grouped {
						if measurer == nil {
							measurer = fault.Sim{}
						}
						measurer = perMachine{measurer}
					}
					prof, err := NewProfile(suite.progs, Options{Seed: 1, Workers: workers, Measurer: measurer})
					if err != nil {
						t.Fatalf("%s %s workers=%d grouped=%v: %v", suite.name, leg.name, workers, grouped, err)
					}
					if prof.Degraded() != (leg.name == "chaos") {
						t.Errorf("%s %s workers=%d grouped=%v: degraded = %v", suite.name, leg.name, workers, grouped, prof.Degraded())
					}
					got, err := prof.AppendBinary(nil)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got
					} else if !bytes.Equal(got, want) {
						t.Errorf("%s %s workers=%d grouped=%v: profile bytes differ from the grouped one-worker build", suite.name, leg.name, workers, grouped)
					}
				}
			}
		}
	}
}

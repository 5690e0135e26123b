package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// TestSweepKWorkersMatchSerial is the determinism gate for the
// parallel sweep: at every worker count the staged, fanned-out result
// must be identical — field for field — to the serial monolith loop.
// Each worker count gets a fresh stage store, so its stages compute
// under the fan-out instead of replaying the previous run. Runs under
// -race.
func TestSweepKWorkersMatchSerial(t *testing.T) {
	prof := tinyProfile(t)
	want, err := prof.SweepK(tinyMask, 2, 7)
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
		t.Errorf("progress called %d times, want chunked reporting", calls)
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
	if _, err := prof.RandomClusteringsContext(ctx, tinyMask, 3, 50, 0, 7); err != context.Canceled {
		t.Errorf("serial randbaseline err = %v, want context.Canceled", err)
	}
	if _, err := prof.PerAppSubsettingContext(ctx, tinyMask, 2); err != context.Canceled {
		t.Errorf("per-app err = %v, want context.Canceled", err)
	}
}

// TestFeatureFitnessContextCanceled: a canceled fitness degrades to
// +Inf instead of running the pipeline.
func TestFeatureFitnessContextCanceled(t *testing.T) {
	prof := tinyProfile(t)
	ctx, cancel := context.WithCancel(context.Background())
	fitness, err := prof.FeatureFitnessContext(ctx, "Atom")
	if err != nil {
		t.Fatal(err)
	}
	if f := fitness(tinyMask); !isInf(f) && f <= 0 {
		t.Errorf("live fitness = %g", f)
	}
	cancel()
	if f := fitness(tinyMask); !isInf(f) {
		t.Errorf("canceled fitness = %g, want +Inf", f)
	}
}

package fanout

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestEveryIndexRunsOnce(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{1000, 8},
		{3, 100}, // more workers than units
		{7, 0},   // workers < 1 means 1
		{7, -3},
	} {
		counts := make([]atomic.Int32, c.n)
		if err := Run(context.Background(), c.n, c.workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: unit %d ran %d times", c.n, c.workers, i, got)
			}
		}
	}
}

func TestZeroUnits(t *testing.T) {
	ran := false
	if err := Run(context.Background(), 0, 4, func(int) error { ran = true; return nil }); err != nil || ran {
		t.Errorf("n=0: err=%v ran=%v, want nil and no unit", err, ran)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, 0, 4, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("n=0 on a canceled ctx: err=%v, want context.Canceled", err)
	}
}

// TestBoundedConcurrency: no more than workers units are in flight at
// once.
func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	if err := Run(context.Background(), 200, workers, func(int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("%d units in flight, want at most %d", p, workers)
	}
}

// TestSerialOrder: with one worker (or fewer) the units run in index
// order, and a failure stops the loop exactly as a serial for-loop
// would.
func TestSerialOrder(t *testing.T) {
	for _, workers := range []int{1, 0, -1} {
		var order []int
		if err := Run(context.Background(), 10, workers, func(i int) error {
			order = append(order, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !reflect.DeepEqual(order, want) {
			t.Errorf("workers=%d: order %v, want %v", workers, order, want)
		}
	}

	boom := errors.New("boom")
	var order []int
	err := Run(context.Background(), 10, 1, func(i int) error {
		order = append(order, i)
		if i == 4 {
			return boom
		}
		return nil
	})
	if err != boom || !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial failure: err=%v order=%v, want boom after units 0..4", err, order)
	}
}

// TestLowestIndexErrorWins: unit 1 fails first and unit 0 fails only
// after it, yet Run reports unit 0's error — the one a serial loop
// would have hit first.
func TestLowestIndexErrorWins(t *testing.T) {
	errLow, errHigh := errors.New("unit 0"), errors.New("unit 1")
	highFailed := make(chan struct{})
	err := Run(context.Background(), 2, 2, func(i int) error {
		if i == 1 {
			defer close(highFailed)
			return errHigh
		}
		<-highFailed
		return errLow
	})
	if err != errLow {
		t.Errorf("err = %v, want %v", err, errLow)
	}
}

// TestNothingClaimedAfterCancel: a done ctx stops claiming at once and
// wins over any unit error.
func TestNothingClaimedAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := Run(ctx, 100, 4, func(int) error { ran = true; return nil }); !errors.Is(err, context.Canceled) || ran {
		t.Errorf("pre-canceled: err=%v ran=%v, want context.Canceled and no unit", err, ran)
	}

	// Every unit but the last of the first `workers` claims blocks
	// until the cancel, so those claims are exactly the units in
	// flight when it lands.
	const workers, cancelAt = 4, 3
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	err := Run(ctx, 1000, workers, func(i int) error {
		started.Add(1)
		if i == cancelAt {
			cancel()
			return errors.New("unit error loses to ctx")
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != workers {
		t.Errorf("%d units ran, want the %d in flight at cancel", n, workers)
	}
}

package pipeline

import (
	"context"
	"sync/atomic"

	"fgbs/internal/fanout"
)

// Parallel fan-out for the staged experiments. The expensive
// experiments are embarrassingly parallel once their unit of work is
// pure: Staged.SweepK's unit is one K (sweepPoint), Staged.
// RandomClusterings' unit is one trial (randomTrial, seeded per trial
// index). Each fans units out with fanout.Run and writes results back
// by index, so the output is identical — byte for byte — to the serial
// Profile loop, whatever the worker count or scheduling order. Profile
// is immutable and shared read-only by every worker.

// ProgressFunc observes fan-out progress: done units completed out of
// total. It may be called concurrently from worker goroutines and the
// done values may arrive slightly out of order; treat it as a gauge,
// not a strictly monotonic counter. A nil ProgressFunc is ignored.
type ProgressFunc func(done, total int)

// runIndexed is fanout.Run reporting progress once per finished unit.
func runIndexed(ctx context.Context, n, workers int, progress ProgressFunc, unit func(i int) error) error {
	var done atomic.Int64
	return fanout.Run(ctx, n, workers, func(i int) error {
		if err := unit(i); err != nil {
			return err
		}
		if progress != nil {
			progress(int(done.Add(1)), n)
		}
		return nil
	})
}

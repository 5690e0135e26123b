package pipeline

import (
	"context"
	"sync"
	"sync/atomic"
)

// Parallel fan-out for the staged experiments. The expensive
// experiments are embarrassingly parallel once their unit of work is
// pure: Staged.SweepK's unit is one K (sweepPoint), Staged.
// RandomClusterings' unit is one trial (randomTrial, seeded per trial
// index). Each fans units out over a bounded worker set and merges
// results back by index, so the output is identical — byte for byte —
// to the serial Profile loop, whatever the worker count or scheduling
// order. Profile is immutable and shared read-only by every worker.

// ProgressFunc observes fan-out progress: done units completed out of
// total. It may be called concurrently from worker goroutines and the
// done values may arrive slightly out of order; treat it as a gauge,
// not a strictly monotonic counter. A nil ProgressFunc is ignored.
type ProgressFunc func(done, total int)

// runIndexed executes n independent units on up to `workers`
// goroutines, reporting progress per unit. The error from the
// lowest-indexed failing unit wins, matching what the serial loop
// would have returned first.
func runIndexed(ctx context.Context, n, workers int, progress ProgressFunc, unit func(i int) error) error {
	return runChunked(ctx, n, workers, progress, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := unit(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// runChunked splits [0, n) into contiguous chunks and executes them on
// up to `workers` goroutines. Chunk boundaries affect only scheduling
// granularity, never results: every unit's outcome is a pure function
// of its index. Progress is reported once per finished chunk.
func runChunked(ctx context.Context, n, workers int, progress ProgressFunc, chunk func(lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path, chunked anyway so progress granularity
		// matches the parallel path.
		for lo := 0; lo < n; lo += chunkSize(n, 1) {
			hi := lo + chunkSize(n, 1)
			if hi > n {
				hi = n
			}
			if err := chunk(lo, hi); err != nil {
				return err
			}
			if progress != nil {
				progress(hi, n)
			}
		}
		return nil
	}

	size := chunkSize(n, workers)
	type chunkErr struct {
		lo  int
		err error
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstE  *chunkErr
		doneCnt atomic.Int64
	)
	sem := make(chan struct{}, workers)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			if err := chunk(lo, hi); err != nil {
				mu.Lock()
				// Keep the lowest-indexed failure: it is the one the
				// serial loop would have hit first, so parallel error
				// reporting is deterministic too.
				if firstE == nil || lo < firstE.lo {
					firstE = &chunkErr{lo: lo, err: err}
				}
				mu.Unlock()
				return
			}
			if progress != nil {
				progress(int(doneCnt.Add(int64(hi-lo))), n)
			}
		}(lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if firstE != nil {
		return firstE.err
	}
	return nil
}

// chunkSize picks the fan-out granularity: enough chunks to keep the
// pool busy and progress lively (4 per worker), capped so tiny inputs
// still split, floored at one unit.
func chunkSize(n, workers int) int {
	size := n / (workers * 4)
	if size > 256 {
		size = 256
	}
	if size < 1 {
		size = 1
	}
	return size
}

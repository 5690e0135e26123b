// Package fanout runs independent, index-addressed units of work on a
// bounded set of goroutines. Every parallel loop in the repository
// runs on it, which is why each gives the same bytes at any worker
// count: a unit writes only its own index's slot, and the error
// returned is the one the serial loop would have returned.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run calls unit(i) for i in [0, n) on up to workers goroutines and
// waits for every claimed unit to finish.
//
//   - workers < 1 means 1.
//   - The calling goroutine is one of the workers, so workers == 1
//     runs every unit in index order on the caller.
//   - Units are claimed in index order from a shared counter.
//   - No unit is claimed once ctx is done or a unit has failed; a
//     claimed unit always runs to completion.
//
// Run returns ctx.Err() if ctx is done. Otherwise it returns the error
// of the lowest-indexed failing unit: every index below a claimed one
// was claimed earlier and ran to completion, so that is the serial
// loop's first error.
func Run(ctx context.Context, n, workers int, unit func(i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		err    error
	)
	work := func() {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if e := unit(i); e != nil {
				mu.Lock()
				if i < errIdx {
					errIdx, err = i, e
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

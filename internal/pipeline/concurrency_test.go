package pipeline

import (
	"context"
	"sync"
	"testing"
)

// TestConcurrentSubsetEvaluate exercises the Profile immutability
// contract under the race detector: many goroutines running the full
// Step C-E chain against one shared profile must neither race nor
// diverge from the sequential result.
func TestConcurrentSubsetEvaluate(t *testing.T) {
	prof := tinyProfile(t)
	want, err := prof.Subset(tinyMask, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantEv, err := prof.Evaluate(want, 0)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				sub, err := prof.Subset(tinyMask, 3)
				if err != nil {
					errs[w] = err
					return
				}
				for i, l := range sub.Selection.Labels {
					if l != want.Selection.Labels[i] {
						t.Errorf("worker %d: label %d = %d, want %d", w, i, l, want.Selection.Labels[i])
						return
					}
				}
				for tt := range prof.Targets {
					ev, err := prof.Evaluate(sub, tt)
					if err != nil {
						errs[w] = err
						return
					}
					if tt == 0 && ev.Summary.Median != wantEv.Summary.Median {
						t.Errorf("worker %d: median %v, want %v", w, ev.Summary.Median, wantEv.Summary.Median)
						return
					}
				}
				if _, err := prof.Subset(tinyMask, 0); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewProfileContextCanceled verifies that a canceled context
// aborts profiling with the context's error instead of a partial
// profile.
func TestNewProfileContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prof, err := NewProfileContext(ctx, tinySuite(), Options{Seed: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if prof != nil {
		t.Fatal("partial profile returned after cancellation")
	}
}

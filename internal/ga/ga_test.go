package ga

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"fgbs/internal/features"
)

// targetFitness rewards masks close to a hidden target mask: the
// number of mismatched bits. The GA must drive it to (near) zero.
func targetFitness(target features.Mask) Fitness {
	return func(m features.Mask) float64 {
		miss := 0.0
		for i := 0; i < features.NumFeatures; i++ {
			if m.Get(i) != target.Get(i) {
				miss++
			}
		}
		return miss
	}
}

func TestConvergesToTarget(t *testing.T) {
	target := features.MaskOf(1, 5, 9, 20, 33, 41, 60, 75)
	res, err := Run(context.Background(), targetFitness(target), Options{
		Population:   120,
		Generations:  60,
		MutationProb: 0.01,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 2 {
		t.Errorf("GA stalled at fitness %g (mismatched bits)", res.BestFitness)
	}
}

func TestHistoryMonotone(t *testing.T) {
	target := features.MaskOf(3, 14, 15)
	res, err := Run(context.Background(), targetFitness(target), Options{
		Population: 50, Generations: 30, MutationProb: 0.02, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 30 {
		t.Fatalf("history length %d", len(res.History))
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("best fitness worsened at generation %d", i)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	target := features.MaskOf(2, 30, 55)
	opts := Options{Population: 40, Generations: 15, MutationProb: 0.01, Seed: 99}
	r1, err := Run(context.Background(), targetFitness(target), opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), targetFitness(target), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestFitness != r2.BestFitness || r1.Best != r2.Best {
		t.Error("same seed produced different results")
	}
}

func TestFitnessPressureTowardSmallSets(t *testing.T) {
	// With fitness = count (like the paper's x K term alone), the GA
	// must shrink masks; the empty mask is guarded to +Inf, so the
	// optimum is a single bit.
	fit := func(m features.Mask) float64 { return float64(m.Count()) }
	res, err := Run(context.Background(), fit, Options{Population: 80, Generations: 40, MutationProb: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Count() > 2 {
		t.Errorf("GA kept %d features where 1 suffices", res.Best.Count())
	}
	if res.Best.Count() == 0 {
		t.Error("empty mask won despite +Inf guard")
	}
}

func TestOnGenerationCallback(t *testing.T) {
	calls := 0
	_, err := Run(context.Background(), func(features.Mask) float64 { return 1 }, Options{
		Population: 10, Generations: 5, MutationProb: 0.01, Seed: 1,
		OnGeneration: func(gen int, best float64, m features.Mask) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("callback ran %d times", calls)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, Options{Population: 10, Generations: 1}); err == nil {
		t.Error("nil fitness accepted")
	}
	f := func(features.Mask) float64 { return 0 }
	if _, err := Run(context.Background(), f, Options{Population: 1, Generations: 1}); err == nil {
		t.Error("population 1 accepted")
	}
	if _, err := Run(context.Background(), f, Options{Population: 10, Generations: 0}); err == nil {
		t.Error("zero generations accepted")
	}
	if _, err := Run(context.Background(), f, Options{Population: 10, Generations: 1, MutationProb: 2}); err == nil {
		t.Error("mutation prob 2 accepted")
	}
}

func TestEvaluationCount(t *testing.T) {
	res, err := Run(context.Background(), func(features.Mask) float64 { return 1 }, Options{
		Population: 20, Generations: 4, MutationProb: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 80 {
		t.Errorf("evaluations = %d, want 80", res.Evaluations)
	}
}

func TestParallelFitnessSafe(t *testing.T) {
	// A fitness that spins briefly makes races likely under -race.
	fit := func(m features.Mask) float64 {
		s := 0.0
		for i := 0; i < 1000; i++ {
			s += math.Sqrt(float64(i + m.Count()))
		}
		return s - math.Floor(s)
	}
	if _, err := Run(context.Background(), fit, Options{Population: 32, Generations: 3, MutationProb: 0.05, Seed: 5, Workers: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestRunContextCanceled: a canceled context aborts the run with the
// context's error — before the first generation, and mid-run via
// OnGeneration.
func TestRunContextCanceled(t *testing.T) {
	target := features.MaskOf(1, 5, 9)
	opts := Options{Population: 50, Generations: 40, MutationProb: 0.01, Seed: 3}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := Run(ctx, targetFitness(target), opts); !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("pre-canceled run = (%v, %v), want (nil, context.Canceled)", res, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	gens := 0
	opts.OnGeneration = func(gen int, best float64, mask features.Mask) {
		gens++
		if gen == 2 {
			cancel()
		}
	}
	if res, err := Run(ctx, targetFitness(target), opts); !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("mid-run cancel = (%v, %v), want (nil, context.Canceled)", res, err)
	}
	if gens < 3 || gens >= opts.Generations {
		t.Errorf("observed %d generations before abort, want a handful", gens)
	}
}

// TestWorkersIdentical: fitness calls fan out over Options.Workers, but
// each score lands on its own individual, so a pure fitness gives the
// same Result at any worker count.
func TestWorkersIdentical(t *testing.T) {
	target := features.MaskOf(4, 18, 27, 50)
	opts := Options{Population: 40, Generations: 12, MutationProb: 0.02, Seed: 11, Workers: 1}
	want, err := Run(context.Background(), targetFitness(target), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	got, err := Run(context.Background(), targetFitness(target), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workers=8 result %+v != workers=1 result %+v", got, want)
	}
}

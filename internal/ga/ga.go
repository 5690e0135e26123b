// Package ga implements the genetic algorithm used to select the
// feature subset (§4.2).
//
// Individuals are 76-bit feature masks (features.Mask). The paper's
// configuration — population 1000, 100 generations, mutation
// probability 0.01, fitness max(error_atom, error_sandybridge) x K —
// maps onto Options; the fitness function itself is provided by the
// caller (internal/pipeline), keeping this package a generic bit-mask
// GA in the spirit of the GNU R genalg package the paper uses.
package ga

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"fgbs/internal/fanout"
	"fgbs/internal/features"
	"fgbs/internal/rng"
)

// Fitness scores an individual; lower is better. Implementations must
// be safe for concurrent use: evaluations run in parallel.
type Fitness func(features.Mask) float64

// Options configures a run.
type Options struct {
	// Population size (paper: 1000).
	Population int
	// Generations to evolve (paper: 100).
	Generations int
	// MutationProb is the per-bit mutation probability (paper: 0.01).
	MutationProb float64
	// EliteFrac is the fraction of best individuals kept unchanged
	// each generation (genalg's default is 20%).
	EliteFrac float64
	// InitBitProb is the probability a bit starts set; a sparse start
	// (well below 0.5) speeds convergence toward small feature sets.
	InitBitProb float64
	// Seed makes the run reproducible.
	Seed uint64
	// Workers bounds parallel fitness evaluations (0 = GOMAXPROCS).
	Workers int
	// OnGeneration, if set, observes progress.
	OnGeneration func(gen int, bestFitness float64, best features.Mask)
}

func (o *Options) fill() error {
	if o.Population <= 1 {
		return fmt.Errorf("ga: population %d too small", o.Population)
	}
	if o.Generations < 1 {
		return fmt.Errorf("ga: need at least one generation")
	}
	if o.MutationProb < 0 || o.MutationProb > 1 {
		return fmt.Errorf("ga: mutation probability %f outside [0,1]", o.MutationProb)
	}
	if o.EliteFrac <= 0 || o.EliteFrac >= 1 {
		o.EliteFrac = 0.2
	}
	if o.InitBitProb <= 0 || o.InitBitProb >= 1 {
		o.InitBitProb = 0.25
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Result is the outcome of a run.
type Result struct {
	Best        features.Mask
	BestFitness float64
	// History records the best fitness after each generation.
	History []float64
	// Evaluations counts fitness calls.
	Evaluations int
}

type scored struct {
	mask features.Mask
	fit  float64
}

// Run evolves feature masks against the fitness function. The loop
// aborts between generations and between fitness evaluations on
// cancellation, returning the context's error. A GA run is minutes of
// pipeline evaluations at the paper's population size, so a canceled
// job must stop dispatching work promptly: each generation's fan-out
// claims no further evaluation once ctx is done, and only the
// evaluations already in flight finish.
func Run(ctx context.Context, fitness Fitness, opts Options) (*Result, error) {
	if fitness == nil {
		return nil, fmt.Errorf("ga: nil fitness")
	}
	if err := opts.fill(); err != nil {
		return nil, err
	}
	r := rng.New(opts.Seed)

	pop := make([]scored, opts.Population)
	for i := range pop {
		pop[i].mask = randomMask(r, opts.InitBitProb)
	}

	res := &Result{BestFitness: math.Inf(1)}
	for gen := 0; gen < opts.Generations; gen++ {
		// A cancellation during the fan-out leaves unevaluated
		// zero-fitness individuals; discard the generation rather than
		// let them win the sort.
		if err := fanout.Run(ctx, len(pop), opts.Workers, func(i int) error {
			if s := &pop[i]; s.mask.Count() == 0 {
				s.fit = math.Inf(1)
			} else {
				s.fit = fitness(s.mask)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		res.Evaluations += len(pop)
		sort.SliceStable(pop, func(i, j int) bool { return pop[i].fit < pop[j].fit })
		if pop[0].fit < res.BestFitness {
			res.BestFitness = pop[0].fit
			res.Best = pop[0].mask
		}
		res.History = append(res.History, res.BestFitness)
		if opts.OnGeneration != nil {
			opts.OnGeneration(gen, res.BestFitness, res.Best)
		}
		if gen == opts.Generations-1 {
			break
		}

		elite := int(float64(opts.Population) * opts.EliteFrac)
		if elite < 1 {
			elite = 1
		}
		next := make([]scored, 0, opts.Population)
		next = append(next, pop[:elite]...)
		for len(next) < opts.Population {
			a := tournament(r, pop)
			b := tournament(r, pop)
			child := crossover(r, a.mask, b.mask)
			child = mutate(r, child, opts.MutationProb)
			next = append(next, scored{mask: child})
		}
		pop = next
	}
	return res, nil
}

// randomMask draws each bit with probability p.
func randomMask(r *rng.RNG, p float64) features.Mask {
	var m features.Mask
	for i := 0; i < features.NumFeatures; i++ {
		m.Set(i, r.Bool(p))
	}
	return m
}

// tournament returns the better of two random individuals.
func tournament(r *rng.RNG, pop []scored) scored {
	a := pop[r.Intn(len(pop))]
	b := pop[r.Intn(len(pop))]
	if a.fit <= b.fit {
		return a
	}
	return b
}

// crossover performs single-point crossover (genalg's operator).
func crossover(r *rng.RNG, a, b features.Mask) features.Mask {
	point := 1 + r.Intn(features.NumFeatures-1)
	var child features.Mask
	for i := 0; i < features.NumFeatures; i++ {
		if i < point {
			child.Set(i, a.Get(i))
		} else {
			child.Set(i, b.Get(i))
		}
	}
	return child
}

// mutate flips each bit with probability p.
func mutate(r *rng.RNG, m features.Mask, p float64) features.Mask {
	if p <= 0 {
		return m
	}
	for i := 0; i < features.NumFeatures; i++ {
		if r.Bool(p) {
			m.Set(i, !m.Get(i))
		}
	}
	return m
}

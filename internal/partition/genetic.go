package partition

import (
	"math/rand"
	"sort"
)

// GAConfig parameterises the genetic-algorithm balancer.
type GAConfig struct {
	Seed        int64
	Population  int     // default 64
	Generations int     // default 200
	CrossProb   float64 // default 0.9
	MutProb     float64 // per-gene mutation probability, default 0.05
	Elite       int     // survivors copied unchanged, default 2

	// MemWeight balances the two objectives in the fitness: fitness =
	// maxLoad + MemWeight·maxMem. Zero means pure load balancing (the
	// original Greene formulation); the E7 experiment also runs a
	// memory-aware variant.
	MemWeight float64
}

func (c *GAConfig) fill() {
	if c.Population == 0 {
		c.Population = 64
	}
	if c.Generations == 0 {
		c.Generations = 200
	}
	if c.CrossProb == 0 {
		c.CrossProb = 0.9
	}
	if c.MutProb == 0 {
		c.MutProb = 0.05
	}
	if c.Elite == 0 {
		c.Elite = 2
	}
}

// GA runs a steady generational genetic algorithm over assignments
// (chromosome = processor index per item, tournament selection, uniform
// crossover, per-gene reset mutation), after Greene's dynamic
// load-balancing GA (paper ref [9]). It returns the best assignment
// found.
func GA(items []Item, m int, cfg GAConfig) Assignment {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(items)
	if n == 0 {
		return Assignment{}
	}

	fitness := func(a Assignment) float64 {
		return float64(a.MaxLoad(items, m)) + cfg.MemWeight*float64(a.MaxMem(items, m))
	}

	pop := make([]Assignment, cfg.Population)
	fit := make([]float64, cfg.Population)
	for i := range pop {
		pop[i] = randomAssignment(rng, n, m)
		fit[i] = fitness(pop[i])
	}
	// Seed one LPT individual so the GA starts no worse than greedy.
	pop[0] = LPT(items, m)
	fit[0] = fitness(pop[0])

	idx := make([]int, cfg.Population)
	for g := 0; g < cfg.Generations; g++ {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return fit[idx[i]] < fit[idx[j]] })

		next := make([]Assignment, 0, cfg.Population)
		for e := 0; e < cfg.Elite && e < cfg.Population; e++ {
			next = append(next, append(Assignment(nil), pop[idx[e]]...))
		}
		for len(next) < cfg.Population {
			a := pop[tournament(rng, fit, 3)]
			b := pop[tournament(rng, fit, 3)]
			child := append(Assignment(nil), a...)
			if rng.Float64() < cfg.CrossProb {
				for i := range child {
					if rng.Intn(2) == 0 {
						child[i] = b[i]
					}
				}
			}
			for i := range child {
				if rng.Float64() < cfg.MutProb {
					child[i] = rng.Intn(m)
				}
			}
			next = append(next, child)
		}
		pop = next
		for i := range pop {
			fit[i] = fitness(pop[i])
		}
	}

	best := 0
	for i := 1; i < cfg.Population; i++ {
		if fit[i] < fit[best] {
			best = i
		}
	}
	return pop[best]
}

func randomAssignment(rng *rand.Rand, n, m int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = rng.Intn(m)
	}
	return a
}

// tournament returns the index of the fittest of k random individuals.
func tournament(rng *rand.Rand, fit []float64, k int) int {
	best := rng.Intn(len(fit))
	for i := 1; i < k; i++ {
		c := rng.Intn(len(fit))
		if fit[c] < fit[best] {
			best = c
		}
	}
	return best
}

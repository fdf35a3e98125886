package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// exhaustive.go explores the heuristic's full decision tree: at every
// step the balancer normally moves the current block to the processor
// maximising λ; the exhaustive search instead tries *every* feasible
// candidate, recursing over complete placement scripts, and returns the
// best reachable outcome. It answers "how much does the greedy λ choice
// lose against an optimal sequential block placement?" (experiment E9) —
// within the same formalism (same block order, same feasibility rules),
// so the difference isolates the cost of greediness alone.

// Objective selects what the exhaustive search minimises.
type Objective int

const (
	// ObjectiveMakespan minimises the total execution time, breaking
	// ties on the maximum per-processor memory.
	ObjectiveMakespan Objective = iota
	// ObjectiveMaxMem minimises the maximum per-processor memory,
	// breaking ties on makespan.
	ObjectiveMaxMem
)

// ExhaustiveLimit bounds the number of blocks the search accepts; the
// tree has up to M^blocks leaves.
const ExhaustiveLimit = 12

// ExhaustiveBest explores every feasible placement script for the given
// schedule and returns the best result under the objective, along with
// the number of complete scripts examined. The balancer configuration
// (policy etc.) is irrelevant except for IgnoreTiming; scripts replace
// the policy.
func (b *Balancer) ExhaustiveBest(input *sched.InstSchedule, obj Objective) (*Result, int, error) {
	pl := NewPlan(input)
	probe, err := b.runScripted(pl, nil)
	if err != nil {
		return nil, 0, err
	}
	nblocks := len(probe.Blocks)
	if nblocks > ExhaustiveLimit {
		return nil, 0, fmt.Errorf("core: %d blocks exceed the exhaustive limit %d", nblocks, ExhaustiveLimit)
	}

	var best *Result
	leaves := 0
	procs := input.Arch.Procs

	var dfs func(prefix []arch.ProcID)
	dfs = func(prefix []arch.ProcID) {
		for p := arch.ProcID(0); int(p) < procs; p++ {
			script := append(append([]arch.ProcID(nil), prefix...), p)
			res, err := b.runScripted(pl, script)
			if err != nil {
				continue // this prefix is infeasible at the current step
			}
			if len(script) < nblocks {
				dfs(script)
				continue
			}
			leaves++
			if best == nil || better2(obj, res, best) {
				best = res
			}
		}
	}
	dfs(nil)
	if best == nil {
		return nil, 0, fmt.Errorf("core: no feasible complete placement script")
	}
	return best, leaves, nil
}

// better2 compares complete results under the objective.
func better2(obj Objective, a, b *Result) bool {
	am, bm := a.MakespanAfter, b.MakespanAfter
	ax, bx := metrics.MaxMem(a.MemAfter), metrics.MaxMem(b.MemAfter)
	switch obj {
	case ObjectiveMaxMem:
		if ax != bx {
			return ax < bx
		}
		return am < bm
	default:
		if am != bm {
			return am < bm
		}
		return ax < bx
	}
}

// runScripted is one optimistic pass of b.Policy with forced choices:
// decision i sends the i-th processed block to script[i], failing when
// that candidate is infeasible even after relaxing eq. (4) to the exact
// wrap check. Note the per-candidate relaxation gives scripts slightly
// more freedom than the greedy pass (which relaxes only when every
// processor fails), so the search optimises over a superset of the
// greedy's reachable outcomes — the right direction for an optimality
// reference. Steps beyond the script fall back to the policy; a nil
// script reproduces the normal optimistic pass.
func (b *Balancer) runScripted(pl *Plan, script []arch.ProcID) (*Result, error) {
	saved := b.script
	b.script = script
	defer func() { b.script = saved }()
	res, err := b.pass(pl, []Policy{b.Policy}, false)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

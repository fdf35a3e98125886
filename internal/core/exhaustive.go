package core

import (
	"fmt"
	"slices"

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
// schedule and returns the best result under the objective — of equal
// ones, the first in lexicographic order of processors — along with the
// number of complete scripts examined. A script sends each block, in
// pass order, to any processor where it fits or lands with eq. (4)
// relaxed to the exact wrap check. That per-candidate relaxation gives
// scripts more freedom than the greedy pass, which relaxes only when
// every processor fails, so the search optimises over a superset of the
// greedy's outcomes — the right direction for an optimality reference.
// Scripts replace the policy, which only scores recorded candidates.
// The search walks the balancing states depth first and, like Run, only
// reads the Balancer.
func (b *Balancer) ExhaustiveBest(input *sched.InstSchedule, obj Objective) (*Result, int, error) {
	pl := NewPlan(input)
	nblocks := len(pl.init.blks)
	if nblocks == 0 {
		return nil, 0, errNoBlocks
	}
	if nblocks > ExhaustiveLimit {
		return nil, 0, fmt.Errorf("core: %d blocks exceed the exhaustive limit %d", nblocks, ExhaustiveLimit)
	}

	var best *Result
	leaves := 0
	moves := make([]Move, 0, nblocks)
	var dfs func(st *balState)
	dfs = func(st *balState) {
		if len(moves) < nblocks {
			b.branches(st, func(mv Move, child *balState) {
				moves = append(moves, mv)
				dfs(child)
				moves = moves[:len(moves)-1]
			})
			return
		}
		leaves++
		res := []*Result{{MakespanBefore: pl.makespan, MemBefore: slices.Clone(pl.mem), Placements: nblocks}}
		b.finish(&walk{st: st, pols: []int{0}, moves: slices.Clone(moves)}, []Policy{b.Policy}, res)
		if best == nil || better2(obj, res[0], best) {
			best = res[0]
		}
	}
	dfs(pl.newState())
	if best == nil {
		return nil, 0, fmt.Errorf("core: no feasible complete placement script")
	}
	return best, leaves, nil
}

// branches evaluates the state's next block once and hands visit, for
// every processor a script may send it to in ascending order, the move
// and its own copy of the state with the move committed. st is left
// mid-block: the caller drops it.
func (b *Balancer) branches(st *balState, visit func(Move, *balState)) {
	bl := st.next()
	st.removeResv(bl)
	ctx := newPctx(st, bl, false)
	_, feasible := b.evaluateAll(ctx)
	for i, e := range st.evals {
		p := arch.ProcID(i)
		if e.v == deferred { // eq. (4) refused its lower bound: probe it
			if e.s, e.reason = b.land(ctx, p); e.reason == "" {
				e.v = overLCM
			}
		}
		if e.v != fits && e.v != overLCM {
			continue
		}
		mv := b.move(ctx, feasible, pick{c: landingOn(b.Policy, ctx, p, e.s), ok: true, relaxed: e.v == overLCM}, b.Policy)
		child := st.clone()
		child.shift(&child.blks[bl.ID])
		b.place(child, bl.ID, p, mv.NewStart)
		visit(mv, child)
	}
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

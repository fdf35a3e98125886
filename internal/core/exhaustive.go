package core

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/model"
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

	var (
		best     *Result
		bestSpan model.Time
		bestMem  model.Mem
		leaves   int
	)
	moves := make([]Move, 0, nblocks)
	mem := make([]model.Mem, input.Arch.Procs)
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
		// A leaf is scored from its blocks; only a new best is built
		// into a Result.
		leaves++
		span, maxMem := st.outcome(mem)
		if best != nil && !better2(obj, span, maxMem, bestSpan, bestMem) {
			return
		}
		res := []*Result{{MakespanBefore: pl.makespan, MemBefore: slices.Clone(pl.mem), Placements: nblocks}}
		b.finish(&walk{st: st, pols: []int{0}, moves: slices.Clone(moves)}, []Policy{b.Policy}, res)
		best, bestSpan, bestMem = res[0], span, maxMem
	}
	dfs(pl.newState())
	if best == nil {
		return nil, 0, fmt.Errorf("core: no feasible complete placement script")
	}
	return best, leaves, nil
}

// outcome returns the makespan and the maximum per-processor memory of
// the schedule the state's blocks make — what finish's schedule reports
// as Makespan and MaxMem of MemVector — using mem, one entry per
// processor, as scratch.
func (st *balState) outcome(mem []model.Mem) (model.Time, model.Mem) {
	clear(mem)
	var span model.Time
	for i := range st.blks {
		bl := &st.blks[i]
		for _, m := range bl.Members {
			span = max(span, m.Start+st.wcet[m.Inst.Task])
			mem[bl.Proc] += st.ts.Task(m.Inst.Task).Mem
		}
	}
	return span, metrics.MaxMem(mem)
}

// branches evaluates the state's next block once and hands visit, for
// every processor a script may send it to in ascending order, the move
// and a state with the move committed: a copy of st for every child but
// the last, which takes st itself. Every move is made before a child
// commits, while st is as evaluated; st is not read after the last
// child, and the caller drops it.
func (b *Balancer) branches(st *balState, visit func(Move, *balState)) {
	bl := st.next()
	st.removeResv(bl)
	ctx := newPctx(st, bl, false)
	_, feasible := b.evaluateAll(ctx)
	var (
		pending Move
		to      arch.ProcID = -1
	)
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
		if to >= 0 {
			child := st.clone()
			child.shift(&child.blks[bl.ID])
			b.place(child, bl.ID, to, pending.NewStart)
			visit(pending, child)
		}
		pending, to = mv, p
	}
	if to >= 0 {
		// newPctx already set st's shifted flags for the block.
		b.place(st, bl.ID, to, pending.NewStart)
		visit(pending, st)
	}
}

// better2 compares complete outcomes, makespan and maximum memory,
// under the objective.
func better2(obj Objective, am model.Time, ax model.Mem, bm model.Time, bx model.Mem) bool {
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

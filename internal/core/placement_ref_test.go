package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
)

// The reference below is the balancer's placement loop before probes
// were pruned: refPlaceBlock evaluates every processor in full, eq. (4)
// included, and when none passes evaluates every processor again
// without it. The production placeBlock must make the same decision for
// every block.

// refEvaluate computes the candidate record for moving the context block
// to processor p. With relaxLCM the Block Condition (eq. 4) is skipped;
// the exact wrap-around interval and reservation checks always apply.
func refEvaluate(b *Balancer, ctx *pctx, p arch.ProcID, relaxLCM bool) Candidate {
	ts, ar, bl, st := ctx.ts, ctx.ar, ctx.bl, ctx.st
	c := Candidate{Proc: p, MemSum: st.memSum[p]}
	sOld := bl.Start()

	if cap := ar.MemCapacity; cap > 0 && st.memSum[p]+bl.Mem() > cap {
		c.Reason = "memory capacity"
		return c
	}

	if b.IgnoreTiming {
		c.Feasible, c.NewStart, c.Gain = true, sOld, 0
		return c
	}

	movedLB, conservativeLB := ctx.depBounds(p)

	var newStart model.Time
	if bl.Category == 2 {
		if movedLB > sOld {
			c.Reason = "moved producers finish too late for the pinned start"
			return c
		}
		if !ctx.conflictFree(p, sOld) {
			c.Reason = "no room at the pinned start"
			return c
		}
		newStart = sOld
	} else {
		s, ok := b.earliestOn(ctx, p, movedLB, conservativeLB)
		if !ok {
			c.Reason = "no conflict-free start within dependence bounds"
			return c
		}
		newStart = s
	}

	if gain := sOld - newStart; gain > 0 {
		if maxG := ctx.cachedPropagationCap(); maxG < gain {
			newStart = sOld - maxG
			if !ctx.conflictFree(p, newStart) {
				if ctx.conflictFree(p, sOld) {
					newStart = sOld
				} else {
					c.Reason = "no conflict-free start within dependence bounds"
					return c
				}
			}
		}
	}

	if !relaxLCM && st.firstStart[p] >= 0 && newStart+bl.Exec() > st.firstStart[p]+ts.HyperPeriod() {
		c.Reason = "LCM condition"
		return c
	}

	c.Feasible, c.NewStart, c.Gain = true, newStart, sOld-newStart
	return c
}

// refPlaceBlock is placeBlock as an evaluate-everything loop.
func refPlaceBlock(b *Balancer, st *balState, bl *blocks.Block, conservative bool, want *arch.ProcID) (Move, error) {
	ar := st.ar
	sOld := bl.Start()
	var cands []Candidate
	if b.RecordCandidates {
		cands = make([]Candidate, 0, ar.Procs)
	}
	var best *Candidate
	var bestVal Candidate
	ctx := newPctx(st, bl, conservative)
	defer ctx.release()

	relaxed := false
	feasible := 0
	for p := arch.ProcID(0); int(p) < ar.Procs; p++ {
		c := refEvaluate(b, ctx, p, b.DisableLCMCondition)
		if c.Feasible {
			feasible++
			c.Lambda = lambda(b.Policy, c.Gain, st.memSum[p])
			if best == nil || better(b.Policy, c, bestVal) {
				bestVal = c
				best = &bestVal
			}
		}
		if b.RecordCandidates {
			cands = append(cands, c)
		}
	}
	if best == nil && !b.DisableLCMCondition {
		relaxed = true
		for p := arch.ProcID(0); int(p) < ar.Procs; p++ {
			c := refEvaluate(b, ctx, p, true)
			if c.Feasible {
				c.Lambda = lambda(b.Policy, c.Gain, st.memSum[p])
				if best == nil || better(b.Policy, c, bestVal) {
					bestVal = c
					best = &bestVal
				}
			}
		}
	}

	if want != nil {
		best = nil
		c := refEvaluate(b, ctx, *want, b.DisableLCMCondition)
		if !c.Feasible {
			c = refEvaluate(b, ctx, *want, true)
			relaxed = c.Feasible
		}
		if !c.Feasible {
			return Move{}, fmt.Errorf("core: scripted placement of block %d on P%d infeasible: %s",
				bl.ID, int(*want)+1, c.Reason)
		}
		c.Lambda = lambda(b.Policy, c.Gain, st.memSum[*want])
		bestVal = c
		best = &bestVal
	}

	mv := Move{BlockID: bl.ID, From: bl.Proc, OldStart: sOld, Category: bl.Category, FeasibleProcs: feasible}
	if b.RecordCandidates {
		mv.Candidates = cands
	}
	if best != nil && relaxed {
		mv.RelaxedLCM = true
	}
	if best == nil {
		mv.To, mv.NewStart, mv.Gain, mv.Forced = bl.Proc, sOld, 0, true
		b.commit(st, bl, bl.Proc, sOld)
		return mv, nil
	}
	mv.To, mv.NewStart, mv.Gain = best.Proc, best.NewStart, best.Gain
	b.commit(st, bl, best.Proc, best.NewStart)
	return mv, nil
}

// refRunPass is one balancing pass of b.Policy over refPlaceBlock whose
// first len(script) decisions follow the script: decision i sends the
// i-th processed block to script[i], relaxing eq. (4) to the exact wrap
// check for that processor alone when it fails, and the pass fails when
// the processor is infeasible even then. A nil script is the greedy pass.
func refRunPass(b *Balancer, input *sched.InstSchedule, conservative bool, script []arch.ProcID) (*Result, error) {
	ts, ar := input.TS, input.Arch
	st := NewPlan(input).newState()
	res := &Result{Moves: make([]Move, 0, len(st.blks))}
	for n := 0; n < len(st.blks); n++ {
		bl := st.next()
		st.removeResv(bl)
		var want *arch.ProcID
		if n < len(script) {
			want = &script[n]
		}
		mv, err := refPlaceBlock(b, st, bl, conservative, want)
		if err != nil {
			return nil, err
		}
		st.processed[bl.ID] = true
		if mv.Forced {
			res.Forced++
		}
		if mv.RelaxedLCM {
			res.RelaxedLCM++
		}
		res.Moves = append(res.Moves, mv)
	}
	pl := sched.NewPlacements(ts)
	for _, bl := range st.blks {
		for _, m := range bl.Members {
			pl[ts.InstanceIndex(m.Inst)] = sched.InstPlacement{Proc: bl.Proc, Start: m.Start}
		}
	}
	out := sched.NewInstSchedule(ts, ar, pl)
	res.Schedule = out
	res.MakespanAfter, res.MemAfter = out.Makespan(), out.MemVector()
	return res, nil
}

// pruneTally counts what the pruned placement skipped, so the test can
// insist its inputs exercise the pruning.
type pruneTally struct {
	passes, steps, relaxedSteps int
	// preRejected counts processors eq. (4) refused before their probe;
	// unprobed counts those a relaxed pass then left unprobed; lastWins
	// counts relaxed passes won by the last of several deferred
	// processors; clamped counts processors that pass eq. (4) only at a
	// landing below the producer bound.
	preRejected, unprobed, lastWins, clamped int
}

// tallyPruning replays placeBlock's passes at one step without
// committing, with the reference's landings for the deferred
// processors, and records which prunings the step exercises.
func tallyPruning(b *Balancer, ctx *pctx, tally *pruneTally) {
	tally.steps++
	lcm := !b.DisableLCMCondition && !b.IgnoreTiming
	var opts []Candidate
	var inc Candidate
	anyFits, ok := false, false
	for p := arch.ProcID(0); int(p) < ctx.ar.Procs; p++ {
		v, s, _ := b.evaluate(ctx, p, lcm)
		switch v {
		case deferred:
			opts = append(opts, landingOn(b.Policy, ctx, p, s))
		case overLCM:
			if o := landingOn(b.Policy, ctx, p, s); !ok || better(b.Policy, o, inc) {
				inc, ok = o, true
			}
		}
		// A landing below the producer bound (earliestOn's fallback to
		// the current start) that only the clamp of the lower bound to
		// the start keeps out of the pre-check.
		if movedLB, consLB := ctx.depBounds(p); lcm && ctx.bl.Category == 1 && max(movedLB, consLB, 0) > ctx.bl.Start() {
			if v == fits && !ctx.meetsLCM(p, max(movedLB, consLB, 0)) {
				tally.clamped++
			}
		}
		anyFits = anyFits || v == fits
	}
	tally.preRejected += len(opts)
	if anyFits || !lcm || len(opts) == 0 {
		return
	}
	tally.relaxedSteps++
	lastWon := false
	for i, o := range opts {
		if ok && better(b.Policy, inc, o) {
			tally.unprobed++
			continue
		}
		c := refEvaluate(b, ctx, o.Proc, true)
		if !c.Feasible {
			continue
		}
		c.Lambda = lambda(b.Policy, c.Gain, c.MemSum)
		if !ok || better(b.Policy, c, inc) {
			inc, ok = c, true
			lastWon = i == len(opts)-1 && i > 0
		}
	}
	if lastWon {
		tally.lastWins++
	}
}

// checkPlacementMatchesReference runs one pass of b both ways and fails
// unless every move and the final schedule agree.
func checkPlacementMatchesReference(t *testing.T, b *Balancer, is *sched.InstSchedule, conservative bool, tally *pruneTally, what string) {
	t.Helper()
	probe := b.probe
	b.probe = func(ctx pctx) { tallyPruning(b, &ctx, tally) }
	got, err := onePass(b, NewPlan(is), conservative)
	b.probe = probe
	if err != nil {
		t.Fatalf("%s: pruned pass: %v", what, err)
	}
	want, err := refRunPass(b, is, conservative, nil)
	if err != nil {
		t.Fatalf("%s: reference pass: %v", what, err)
	}
	tally.passes++
	checkSameResult(t, got, want, what)
}

// checkScriptMatchesReference runs one optimistic pass of b whose first
// decisions follow the script both ways: through the exhaustive search's
// branches, then the greedy walk (scriptedPass), and through the
// reference. Either both find the script infeasible, or every move and
// the final schedule agree.
func checkScriptMatchesReference(t *testing.T, b *Balancer, is *sched.InstSchedule, script []arch.ProcID, tally *pruneTally, what string) {
	t.Helper()
	probe := b.probe
	b.probe = func(ctx pctx) { tallyPruning(b, &ctx, tally) }
	got := scriptedPass(b, NewPlan(is), script)
	b.probe = probe
	want, wantErr := refRunPass(b, is, false, script)
	if (got == nil) != (wantErr != nil) {
		t.Fatalf("%s: search branch found %v, reference error %v", what, got != nil, wantErr)
	}
	if got == nil {
		return
	}
	tally.passes++
	checkSameResult(t, got, want, what)
}

// scriptedPass is one optimistic pass of b.Policy whose first decisions
// follow the script: step i takes the exhaustive search's branch to
// script[i], and the steps beyond the script are the greedy walk's. It is
// nil when the search has no branch to the script's processor at some
// step.
func scriptedPass(b *Balancer, pl *Plan, script []arch.ProcID) *Result {
	nb := len(pl.init.blks)
	w := walk{st: pl.newState(), pols: []int{0}, moves: make([]Move, 0, nb)}
	for _, p := range script[:min(len(script), nb)] {
		var next *balState
		b.branches(w.st, func(mv Move, child *balState) {
			if mv.To == p {
				w.moves, next = append(w.moves, mv), child
			}
		})
		if next == nil {
			return nil
		}
		w.st = next
	}
	for len(w.moves) < nb {
		b.placeBlock(&w, []Policy{b.Policy}, false)
	}
	out := []*Result{{}}
	b.finish(&w, []Policy{b.Policy}, out)
	return out[0]
}

// checkSameResult fails unless got and the reference want made the same
// moves, with the same candidate records, and placed every instance
// alike.
func checkSameResult(t *testing.T, got, want *Result, what string) {
	t.Helper()
	if len(got.Moves) != len(want.Moves) {
		t.Fatalf("%s: %d moves, reference %d", what, len(got.Moves), len(want.Moves))
	}
	for i, g := range got.Moves {
		w := want.Moves[i]
		if g.BlockID != w.BlockID || g.From != w.From || g.OldStart != w.OldStart || g.Category != w.Category ||
			g.To != w.To || g.NewStart != w.NewStart || g.Gain != w.Gain || g.FeasibleProcs != w.FeasibleProcs ||
			g.RelaxedLCM != w.RelaxedLCM || g.Forced != w.Forced {
			t.Fatalf("%s: move %d differs:\n pruned    %+v\n reference %+v", what, i, g, w)
		}
		if len(g.Candidates) != len(w.Candidates) {
			t.Fatalf("%s: move %d records %d candidates, reference %d", what, i, len(g.Candidates), len(w.Candidates))
		}
		for k, gc := range g.Candidates {
			// Only the reason of a processor that fails both its probe and
			// eq. (4) may differ: the pruned loop names eq. (4).
			wc := w.Candidates[k]
			if gc.Reason != wc.Reason && gc.Reason == reasonLCM && !wc.Feasible {
				gc.Reason = wc.Reason
			}
			if gc != wc {
				t.Fatalf("%s: move %d candidate %d:\n pruned    %+v\n reference %+v", what, i, k, gc, wc)
			}
		}
	}
	if got.Forced != want.Forced || got.RelaxedLCM != want.RelaxedLCM {
		t.Fatalf("%s: forced/relaxed %d/%d, reference %d/%d", what, got.Forced, got.RelaxedLCM, want.Forced, want.RelaxedLCM)
	}
	is := want.Schedule
	for i := 0; i < is.TS.Len(); i++ {
		task := model.TaskID(i)
		for k := 0; k < is.TS.Instances(task); k++ {
			inst := model.InstanceID{Task: task, K: k}
			gp, _ := got.Schedule.Placement(inst)
			wp, _ := want.Schedule.Placement(inst)
			if gp != wp {
				t.Fatalf("%s: %v placed at %+v, reference %+v", what, inst, gp, wp)
			}
		}
	}
}

// onePass is one balancing pass of b.Policy alone, optimistic or
// conservative, with no rerun.
func onePass(b *Balancer, pl *Plan, conservative bool) (*Result, error) {
	res, err := b.pass(pl, []Policy{b.Policy}, conservative)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// balancerVariants are the configurations the pruning must agree under:
// the default, eq. (4) dropped, and the untimed Theorem 2 regime.
func balancerVariants(policy Policy) []Balancer {
	return []Balancer{
		{Policy: policy},
		{Policy: policy, DisableLCMCondition: true},
		{Policy: policy, IgnoreTiming: true},
	}
}

// TestPrunedPlacementMatchesReference drives the pruned placement and the
// evaluate-everything reference over the families of
// TestPlacementQueriesMatchLinearScan, every policy, both propagation
// modes and the balancer variants, plus random placement scripts and a
// memory capacity, and requires the same move for every block and the
// same final schedule.
func TestPrunedPlacementMatchesReference(t *testing.T) {
	var tally pruneTally
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range diffConfigs() {
		ts, err := gen.Generate(cfg.gen)
		if err != nil {
			t.Fatal(err)
		}
		ar := arch.MustNew(cfg.procs, cfg.comm)
		s, err := sched.NewScheduler(ts, ar).Run()
		if err != nil {
			continue // unschedulable input: nothing to balance
		}
		is := sched.FromSchedule(s)
		for _, policy := range []Policy{PolicyLexicographic, PolicyRatio, PolicyMemoryOnly} {
			for _, b := range balancerVariants(policy) {
				for _, conservative := range []bool{false, true} {
					what := fmt.Sprintf("%+v M=%d %v disableLCM=%v ignoreTiming=%v conservative=%v",
						cfg.gen, cfg.procs, policy, b.DisableLCMCondition, b.IgnoreTiming, conservative)
					checkPlacementMatchesReference(t, &b, is, conservative, &tally, what)
				}
			}
			// Recorded candidates, a memory capacity, and scripted
			// placements (ExhaustiveBest's branches) on the same input.
			b := Balancer{Policy: policy, RecordCandidates: true}
			checkPlacementMatchesReference(t, &b, is, false, &tally, "recorded")
			// A capacity just above the even share of the total memory
			// rejects processors once they fill up.
			var total model.Mem
			for _, m := range is.MemVector() {
				total += m
			}
			capped := sched.FromSchedule(s)
			capAr := *ar
			capAr.SetMemCapacity(total/model.Mem(cfg.procs) + total/model.Mem(10*cfg.procs))
			capped.Arch = &capAr
			checkPlacementMatchesReference(t, &Balancer{Policy: policy}, capped, false, &tally, "capacity")
			for range 3 {
				script := make([]arch.ProcID, 1+rng.Intn(12))
				for i := range script {
					script[i] = arch.ProcID(rng.Intn(cfg.procs))
				}
				checkScriptMatchesReference(t, &Balancer{Policy: policy}, is, script, &tally, fmt.Sprintf("script %v", script))
			}
		}
	}
	t.Logf("%+v", tally)
	if tally.passes < 200 || tally.preRejected == 0 || tally.relaxedSteps == 0 || tally.unprobed == 0 || tally.lastWins == 0 {
		t.Fatalf("pruning coverage too thin: %+v", tally)
	}
}

// TestPrunedPlacementClampsLowerBound covers the one landing below the
// producer bound: a first-category block whose unprocessed producer
// ends within C of it on another processor (the state optimistic gain
// propagation can leave, written here directly into the initial
// schedule) falls back to its current start. eq. (4) must then be
// pre-checked at that start, not at the producer bound.
//
// H = 12, C = 2. a lands first on P1 at 0, so eq. (4) admits blocks
// ending by 12 there. Block [z-y] starts at 9 on P2 and ends at 11;
// y's producer x, unprocessed on P3, ends at 11, so the producer bound
// is 11 + 2 − 1 = 12: beyond the start, and on P1 beyond eq. (4).
func TestPrunedPlacementClampsLowerBound(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 12, 1, 1)
	z := ts.MustAddTask("z", 12, 1, 1)
	y := ts.MustAddTask("y", 12, 1, 1)
	x := ts.MustAddTask("x", 12, 1, 1)
	ts.MustAddDependence(z, y, 1)
	ts.MustAddDependence(x, y, 1)
	ts.MustFreeze()
	s := sched.MustNewSchedule(ts, arch.MustNew(3, 2))
	s.MustPlace(a, 0, 0)
	s.MustPlace(z, 1, 9)
	s.MustPlace(y, 1, 10)
	s.MustPlace(x, 2, 10)
	is := sched.FromSchedule(s)

	var tally pruneTally
	for _, policy := range []Policy{PolicyLexicographic, PolicyRatio, PolicyMemoryOnly} {
		for _, conservative := range []bool{false, true} {
			checkPlacementMatchesReference(t, &Balancer{Policy: policy}, is, conservative, &tally,
				fmt.Sprintf("%v conservative=%v", policy, conservative))
		}
	}
	if tally.clamped == 0 {
		t.Fatalf("no landing below the producer bound: %+v", tally)
	}
}

package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/model"
	"repro/internal/sched"
)

// Move records one block relocation performed by the heuristic.
type Move struct {
	BlockID    int
	From, To   arch.ProcID
	OldStart   model.Time
	NewStart   model.Time
	Gain       model.Time
	Category   int
	Forced     bool // no processor was feasible; block kept in place
	RelaxedLCM bool // placed only after relaxing eq. (4) to the exact wrap check

	// FeasibleProcs counts the processors the policy evaluation found
	// feasible (before any eq. 4 relaxation); it is kept on every run.
	// Candidates holds that evaluation itself, one record per processor,
	// only under RecordCandidates.
	FeasibleProcs int
	Candidates    []Candidate
}

// Result is the outcome of one balancing run.
type Result struct {
	Schedule *sched.InstSchedule // the balanced schedule
	Blocks   []*blocks.Block     // the blocks, with final positions
	Moves    []Move

	MakespanBefore model.Time
	MakespanAfter  model.Time
	MemBefore      []model.Mem
	MemAfter       []model.Mem
	Forced         int // number of forced (infeasible-everywhere) blocks
	RelaxedLCM     int // blocks placed only after relaxing eq. (4)

	// ConservativePropagation reports that the optimistic first pass left
	// forced blocks and the result comes from the provably safe
	// conservative rerun (see Balancer.Run).
	ConservativePropagation bool

	// Placements counts the blocks the balancing walks evaluated on this
	// result's behalf, the optimistic pass and any conservative rerun
	// together. A walk shared by several policies of one RunPolicies call
	// charges each block to the first of them in the list, so the counts
	// of one call add up to the work it did: len(Blocks) per walked pass.
	Placements int
}

// GainTotal returns Lformer − Lnew, the paper's Gtotal.
func (r *Result) GainTotal() model.Time { return r.MakespanBefore - r.MakespanAfter }

// Balancer runs the load-balancing and memory-usage heuristic. Its
// methods only read it, so concurrent calls may share one Balancer, one
// Plan and one input schedule.
type Balancer struct {
	// Policy is the cost function Run balances under; RunPolicies
	// takes its policies as an argument instead.
	Policy Policy

	// IgnoreTiming disables the timing filters (candidate last-end filter,
	// gain computation, LCM condition): every processor is a candidate and
	// blocks keep their start times. Used with PolicyMemoryOnly for the
	// Theorem 2 regime where "the total execution time is not taken into
	// consideration" (§5.2).
	IgnoreTiming bool

	// RecordCandidates keeps the per-processor evaluation of every block
	// in the result (needed by the worked-example test and the CLI trace).
	// Off — the default — the hot path allocates no Candidate slices; the
	// per-move feasible counts (Move.FeasibleProcs) are kept either way.
	RecordCandidates bool

	// DisableLCMCondition drops the paper's Block Condition (eq. 4)
	// entirely, relying on the exact wrap-around interval check alone.
	// The default keeps eq. (4) as the primary filter — matching the
	// paper's published candidate rejections — and falls back to the
	// exact check only for blocks eq. (4) would otherwise leave with no
	// processor at all (counted in Result.RelaxedLCM).
	DisableLCMCondition bool

	// probe, when non-nil, gets a copy of every block's placement context
	// before the processors are evaluated (used by the differential tests
	// of the placement queries). A copy, so the context itself does not
	// escape to the heap. Not part of the public API.
	probe func(ctx pctx)
}

// balState is the state of one walk: its own copy of the plan's blocks
// and of everything placing them changes, with the static tables read
// from the plan. Everything is indexed by dense IDs (processor, task,
// block, instance) — the balancer's inner loops run millions of lookups
// per trial and map overhead used to dominate them.
type balState struct {
	*Plan

	// blks is this walk's copy of the plan's blocks, and members the
	// backing of their Members: positions change as blocks move and gains
	// propagate.
	blks    []blocks.Block
	members []blocks.Member

	// occ[p] indexes, folded modulo H, the obstacles on p that placement
	// queries must honour: the blocks moved to p as [start, end)
	// intervals, and the members of the unprocessed blocks currently
	// hosted on p — their reservations. A block's members are removed
	// when it is popped for placement, and each member is repositioned
	// whenever gain propagation shifts it. Indexing members rather than
	// blocks keeps the run sorted by start even after propagation has
	// reordered a block's members.
	occ        []foldIndex
	firstStart []model.Time // start of first block moved there (-1 = none)
	memSum     []model.Mem  // Σ m of blocks moved there
	anyMoved   []bool

	// processed flags the blocks already placed, and queue orders the
	// rest (see next).
	processed []bool
	queue     []queueEntry

	// Scratch, reset after each block: shifted flags per task for the
	// block being placed, seen flags per block ID for the propagation
	// cap, and the blocks touched by gain propagation.
	shifted []bool
	seen    []bool
	touched []*blocks.Block

	// evals holds evaluate's verdict on every processor for the block
	// being placed.
	evals []eval

	// picks holds each policy's pick for the block being placed.
	picks []pick
}

// eval is evaluate's verdict on one processor, with its start and
// reason. A processor eq. (4) refused before its probe (deferred) keeps
// the probe for every policy whose relaxed pass asks for it (see
// relaxedPick): probed, then the landing, or !lands.
type eval struct {
	v       verdict
	probed  bool
	lands   bool
	s       model.Time
	landing model.Time
	reason  string
}

// member returns the current position of the block member ref names.
func (st *balState) member(ref ownerRef) *blocks.Member {
	return &st.blks[ref.blk].Members[ref.mi]
}

// removeResv drops a block's members from the obstacle index once it
// is popped for placement.
func (st *balState) removeResv(bl *blocks.Block) {
	for mi, m := range bl.Members {
		st.occ[bl.Proc].remove(m.Start, m.Start+st.wcet[m.Inst.Task], ownerRef{int32(bl.ID), int32(mi)})
	}
}

// Run balances the given instance-level schedule under b.Policy and
// returns the result: RunPolicies with that one policy on the
// schedule's plan. The input schedule is not modified.
func (b *Balancer) Run(input *sched.InstSchedule) (*Result, error) {
	res, err := b.RunPolicies(NewPlan(input), []Policy{b.Policy})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunPolicies balances the schedule the plan was built from once per
// policy of pols — b.Policy is not read — and returns one result per
// entry, each equal to what Run gives under that policy. Entries may
// repeat and come in any order.
//
// The heuristic is one greedy walk over the blocks, and a policy only
// chooses among processors the walk has already evaluated: the verdicts,
// landings and eq. (4) deferrals do not depend on it. So the policies
// share a walk for as long as they agree: each block is evaluated once,
// every policy picks from that evaluation, and where the picks differ
// the walk forks, each group of policies continuing with its own pick.
//
// The run is two-pass: the first pass caps gain propagation
// optimistically (assuming shifted blocks can later co-locate with their
// producers, as the paper's worked example does in its step 6). When
// that bet fails for a policy — some block ends up with no feasible
// processor (Forced > 0) — the policy reruns with the conservative cap,
// under which every shift is provably realisable and no block is ever
// forced. The policies that rerun share their walks the same way.
func (b *Balancer) RunPolicies(pl *Plan, pols []Policy) ([]*Result, error) {
	out, err := b.pass(pl, pols, false)
	if err != nil {
		return nil, err
	}
	var redo []int
	for i, res := range out {
		if res.Forced > 0 {
			redo = append(redo, i)
		}
	}
	if len(redo) == 0 {
		return out, nil
	}
	// The optimistic results of the rerun policies are dropped before the
	// rerun: only their work counts are kept.
	again := make([]Policy, len(redo))
	placed := make([]int, len(redo))
	for k, i := range redo {
		again[k], placed[k], out[i] = pols[i], out[i].Placements, nil
	}
	cons, err := b.pass(pl, again, true)
	if err != nil {
		return nil, err
	}
	for k, i := range redo {
		cons[k].ConservativePropagation = true
		cons[k].Placements += placed[k]
		out[i] = cons[k]
	}
	return out, nil
}

// walk is a pass shared by the policies that have agreed on every
// decision so far: pols indexes them in the caller's list, and moves
// holds the pass's moves so far, their candidate records (under
// RecordCandidates) scored under the first of them. st is the state the
// moves lead to.
//
// A fork waits with no state and no moves of its own (see resume): fork
// is its move for the block where it forked, and moves the moves before
// it — its parent's, read-only.
type walk struct {
	st    *balState
	pols  []int
	moves []Move
	fork  *Move
}

// pass runs one balancing pass per policy of pols, optimistic or
// conservative, each starting from a clone of the plan's initial state,
// in as few walks as the policies' decisions allow. A walk that forks
// carries on, and the forks run after it, so one walk state is alive at
// a time.
func (b *Balancer) pass(pl *Plan, pols []Policy, conservative bool) ([]*Result, error) {
	nb := len(pl.init.blks)
	if nb == 0 {
		return nil, errNoBlocks
	}
	out := make([]*Result, len(pols))
	all := make([]int, len(pols))
	for i := range pols {
		all[i] = i
		out[i] = &Result{MakespanBefore: pl.makespan, MemBefore: slices.Clone(pl.mem)}
	}
	if len(pols) == 0 {
		return out, nil
	}
	todo := []walk{{pols: all, moves: make([]Move, 0, nb)}}
	for len(todo) > 0 {
		w := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		b.resume(pl, &w, pols)
		for len(w.moves) < nb {
			todo = append(todo, b.placeBlock(&w, pols, conservative)...)
			out[w.pols[0]].Placements++
		}
		b.finish(&w, pols, out)
	}
	return out, nil
}

// resume gives the walk its state: a clone of the plan's initial state
// with the walk's moves replayed on it. A replayed step pops the next
// block and commits it where its move went, with no evaluation: the
// commits alone decide the state, so a fork gets the one it had when it
// forked. A fork first takes its own copy of the moves, scored under its
// first policy, and its move. Forks wait that way so that only the
// running walk holds a state and moves of its own.
func (b *Balancer) resume(pl *Plan, w *walk, pols []Policy) {
	if w.fork != nil {
		w.moves = append(rescored(w.moves, pols[w.pols[0]], len(pl.init.blks)), *w.fork)
		w.fork = nil
	}
	st := pl.newState()
	for _, mv := range w.moves {
		bl := st.next()
		if bl.ID != mv.BlockID {
			panic(fmt.Sprintf("core: replay popped block %d, the walk moved block %d", bl.ID, mv.BlockID))
		}
		st.removeResv(bl)
		st.shift(bl)
		b.place(st, bl.ID, mv.To, mv.NewStart)
	}
	w.st = st
}

// finish completes the results of the walk's policies. They made the
// same moves, so they share the walk's moves and final blocks — read-only
// like every result — except that under RecordCandidates a policy other
// than the walk's first gets a copy of the moves scored under its own λ.
// They share one balanced schedule, its makespan and its memory vector
// too.
func (b *Balancer) finish(w *walk, pols []Policy, out []*Result) {
	st := w.st
	blks := make([]*blocks.Block, len(st.blks))
	// Every instance is a member of exactly one block, so the loop sets
	// every placement.
	pl := make([]sched.InstPlacement, st.ts.TotalInstances())
	for j := range st.blks {
		bl := &st.blks[j]
		blks[j] = bl
		for _, m := range bl.Members {
			pl[st.ts.InstanceIndex(m.Inst)] = sched.InstPlacement{Proc: bl.Proc, Start: m.Start}
		}
	}
	sch := sched.NewInstSchedule(st.ts, st.ar, pl)
	makespan, mem := sch.Makespan(), sch.MemVector()
	forced, relaxed := 0, 0
	for _, mv := range w.moves {
		if mv.Forced {
			forced++
		}
		if mv.RelaxedLCM {
			relaxed++
		}
	}
	for _, i := range w.pols {
		res := out[i]
		res.Blocks, res.Moves, res.Forced, res.RelaxedLCM = blks, w.moves, forced, relaxed
		if b.RecordCandidates && pols[i] != pols[w.pols[0]] {
			res.Moves = rescored(w.moves, pols[i], len(w.moves))
		}
		res.Schedule, res.MakespanAfter, res.MemAfter = sch, makespan, mem
	}
}

// rescored copies moves, with room for size, and scores the feasible
// candidate records, if any were kept, under the policy: a record keeps
// the gain and the memory its λ is computed from.
func rescored(moves []Move, pol Policy, size int) []Move {
	out := append(make([]Move, 0, size), moves...)
	for i := range out {
		if out[i].Candidates == nil {
			continue
		}
		cands := slices.Clone(out[i].Candidates)
		for k := range cands {
			if cands[k].Feasible {
				cands[k].Lambda = lambda(pol, cands[k].Gain, cands[k].MemSum)
			}
		}
		out[i].Candidates = cands
	}
	return out
}

// queueEntry is one entry of a walk's block queue: a block ID with the
// block's start when it was pushed.
type queueEntry struct {
	start model.Time
	id    int32
}

// entryLess orders the queue: smallest start, then processor, then first
// member identity.
func (st *balState) entryLess(a, b queueEntry) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	x, y := &st.blks[a.id], &st.blks[b.id]
	if x.Proc != y.Proc {
		return x.Proc < y.Proc
	}
	ai, bi := x.Members[0].Inst, y.Members[0].Inst
	if ai.Task != bi.Task {
		return ai.Task < bi.Task
	}
	return ai.K < bi.K
}

// push queues block id at its current start. The queue is a lazy binary
// heap: gain propagation re-pushes the blocks it shifts, and stale
// entries (key no longer current, or block already processed) are
// discarded by next.
func (st *balState) push(id int) {
	q := append(st.queue, queueEntry{start: st.blks[id].Start(), id: int32(id)})
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !st.entryLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	st.queue = q
}

// next pops the unprocessed block with the smallest current start (ties:
// processor, then first member identity). Every block is guaranteed a
// current entry: blocks are pushed at construction and re-pushed
// whenever propagation changes their start, so a stale entry always has
// a fresher duplicate behind it.
func (st *balState) next() *blocks.Block {
	for len(st.queue) > 0 {
		q := st.queue
		top := q[0]
		last := len(q) - 1
		q[0] = q[last]
		q = q[:last]
		// Sift down.
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(q) && st.entryLess(q[l], q[small]) {
				small = l
			}
			if r < len(q) && st.entryLess(q[r], q[small]) {
				small = r
			}
			if small == i {
				break
			}
			q[i], q[small] = q[small], q[i]
			i = small
		}
		st.queue = q
		if bl := &st.blks[top.id]; !st.processed[top.id] && top.start == bl.Start() {
			return bl
		}
		// stale: processed, or superseded by a re-push
	}
	return nil
}

// pick is one policy's decision for the block being placed: the landing
// c, or none (!ok, the block is forced to stay), and whether it needed
// eq. (4) relaxed.
type pick struct {
	c       Candidate
	ok      bool
	relaxed bool
}

// to is the processor the pick sends the block to, -1 when it is forced
// to stay. A processor's landing does not depend on the policy, so two
// picks with the same destination are the same decision.
func (pk pick) to() arch.ProcID {
	if !pk.ok {
		return -1
	}
	return pk.c.Proc
}

// placeBlock places the walk's next block for every policy of the walk,
// and commits the moves, propagating gains to later-instance blocks.
//
// Each processor is evaluated once, whatever the number of policies, and
// probed at most once. evaluate settles a processor without its probe
// whenever a cheaper check already rejects it, and a processor eq. (4)
// rejected that way is probed only if the relaxed pass — eq. (4) left
// the block with no processor — may still pick it for some policy
// (relaxedPick). Each policy's outcome is the one of evaluating every
// processor in full, then again without eq. (4) when none passed.
//
// Policies that pick different processors part here: the walk keeps the
// first policy's pick and the policies that agree with it, and each
// other pick's policies continue as a new walk, returned with its own
// move for this block; it gets its state when it resumes.
func (b *Balancer) placeBlock(w *walk, pols []Policy, conservative bool) []walk {
	st, n := w.st, len(w.moves)
	bl := st.next()
	st.removeResv(bl)
	ctx := newPctx(st, bl, conservative)
	lcm, feasible := b.evaluateAll(ctx)

	// Each policy's pick; a policy listed twice picks once.
	picks := st.picks[:0]
	split := false
	for k, i := range w.pols {
		var pk pick
		if j := samePolicy(pols, w.pols[:k], pols[i]); j >= 0 {
			pk = picks[j]
		} else {
			pk = b.pick(ctx, pols[i], lcm)
		}
		picks = append(picks, pk)
		split = split || pk.to() != picks[0].to()
	}
	st.picks = picks

	// Policies that pick another processor than the first fork, one walk
	// per destination. Every move is made before the commit: its
	// candidate records read the state before it.
	var forks []walk
	if split {
		var keep []int
		var fpicks []pick
		for k, i := range w.pols {
			pk := picks[k]
			if pk.to() == picks[0].to() {
				keep = append(keep, i)
				continue
			}
			f := slices.IndexFunc(fpicks, func(q pick) bool { return q.to() == pk.to() })
			if f < 0 {
				f = len(forks)
				forks = append(forks, walk{})
				fpicks = append(fpicks, pk)
			}
			forks[f].pols = append(forks[f].pols, i)
		}
		for f := range forks {
			fw := &forks[f]
			mv := b.move(ctx, feasible, fpicks[f], pols[fw.pols[0]])
			fw.moves, fw.fork = w.moves[:n:n], &mv
		}
		w.pols = keep
	}
	mv := b.move(ctx, feasible, picks[0], pols[w.pols[0]])
	w.moves = append(w.moves, mv)
	b.place(st, bl.ID, mv.To, mv.NewStart)
	return forks
}

// evaluateAll evaluates every processor for the context block into
// st.evals and returns whether eq. (4) applies — it is a timing filter,
// so IgnoreTiming drops it with the others — and how many processors fit.
func (b *Balancer) evaluateAll(ctx *pctx) (lcm bool, feasible int) {
	if b.probe != nil {
		b.probe(*ctx)
	}
	lcm = !b.DisableLCMCondition && !b.IgnoreTiming
	st := ctx.st
	st.evals = st.evals[:0]
	for p := arch.ProcID(0); int(p) < st.ar.Procs; p++ {
		v, s, reason := b.evaluate(ctx, p, lcm)
		if v == fits {
			feasible++
		}
		st.evals = append(st.evals, eval{v: v, s: s, reason: reason})
	}
	return lcm, feasible
}

// move is the record of pk, the pick for the context block, with the
// candidate records scored under the policy when they are kept.
func (b *Balancer) move(ctx *pctx, feasible int, pk pick, pol Policy) Move {
	bl := ctx.bl
	mv := Move{BlockID: bl.ID, From: bl.Proc, OldStart: bl.Start(), Category: bl.Category, FeasibleProcs: feasible}
	if b.RecordCandidates {
		mv.Candidates = b.candidates(ctx, pol)
	}
	if !pk.ok {
		// No processor feasible: keep the block where it is (recorded as
		// forced; final validation reports any resulting inconsistency).
		// Whether some processor is found does not depend on the policy,
		// so the walk's policies are forced alike.
		mv.To, mv.NewStart, mv.Forced = bl.Proc, bl.Start(), true
		return mv
	}
	mv.To, mv.NewStart, mv.Gain, mv.RelaxedLCM = pk.c.Proc, pk.c.NewStart, pk.c.Gain, pk.relaxed
	return mv
}

// samePolicy returns the position in idx of the first entry naming
// policy pol, or -1.
func samePolicy(pols []Policy, idx []int, pol Policy) int {
	return slices.IndexFunc(idx, func(i int) bool { return pols[i] == pol })
}

// pick is the policy's choice from the evaluation of the block being
// placed: the best fitting landing, else — eq. (4) left the block with no
// processor — the best without it (relaxedPick).
func (b *Balancer) pick(ctx *pctx, pol Policy, lcm bool) pick {
	// best is the policy's pick; over is the best landing that only
	// eq. (4) refuses, where a relaxed pass starts.
	var best, over Candidate
	haveBest, haveOver := false, false
	for p, e := range ctx.st.evals {
		switch e.v {
		case fits:
			if c := landingOn(pol, ctx, arch.ProcID(p), e.s); !haveBest || better(pol, c, best) {
				best, haveBest = c, true
			}
		case overLCM:
			if o := landingOn(pol, ctx, arch.ProcID(p), e.s); !haveOver || better(pol, o, over) {
				over, haveOver = o, true
			}
		}
	}
	if haveBest || !lcm {
		return pick{c: best, ok: haveBest}
	}
	best, haveBest = b.relaxedPick(ctx, pol, over, haveOver)
	return pick{c: best, ok: haveBest, relaxed: haveBest}
}

// candidates is the evaluation of the block being placed as the
// policy's candidate records, one per processor.
func (b *Balancer) candidates(ctx *pctx, pol Policy) []Candidate {
	cands := make([]Candidate, len(ctx.st.evals))
	for p, e := range ctx.st.evals {
		if e.v == fits {
			cands[p] = landingOn(pol, ctx, arch.ProcID(p), e.s)
		} else {
			cands[p] = Candidate{Proc: arch.ProcID(p), MemSum: ctx.st.memSum[p], Reason: e.reason}
		}
	}
	return cands
}

// place commits the move of block id to p at start s on the state — the
// move and its gain propagation (commit) — then sets the block's
// processed flag and clears the shifted flags set for it.
func (b *Balancer) place(st *balState, id int, p arch.ProcID, s model.Time) {
	bl := &st.blks[id]
	b.commit(st, bl, p, s)
	st.processed[id] = true
	st.unshift(bl)
}

// verdict is what evaluate learned about one processor.
type verdict uint8

const (
	fits     verdict = iota // the candidate is feasible
	excluded                // infeasible even with eq. (4) relaxed
	overLCM                 // lands at the returned start, which eq. (4) refuses
	deferred                // not probed: eq. (4) refuses the returned lower bound
)

// errNoBlocks is the error of a run or search with no blocks to place.
var errNoBlocks = errors.New("core: nothing to balance: no blocks")

// Candidate rejection reasons used in more than one place.
const (
	reasonLCM   = "LCM condition"
	reasonNoFit = "no conflict-free start within dependence bounds"
)

// evaluate decides whether the context block can move to processor p,
// with the Block Condition, eq. (4), applied when lcm is set. The checks
// that need no probe run first, in order: memory capacity, the moved
// producers of a pinned block, and eq. (4) at the lowest start the probe
// can return. That bound is the start itself for a pinned block; a
// first-category block lands at or above its producer bound, or at its
// current start when that bound lies beyond it (see earliestOn), and a
// capped gain only raises the landing. Only a processor that passes all
// three is probed (land).
//
// The verdict and the returned start carry what the caller needs: the
// landing of a fitting processor (fits) or of a probed one eq. (4)
// refuses (overLCM), or the lower bound of one it refused before the
// probe (deferred). reason says why a processor does not fit. No
// candidate record is built here: the caller makes one only for a
// landing it weighs, or when it records candidates.
func (b *Balancer) evaluate(ctx *pctx, p arch.ProcID, lcm bool) (verdict, model.Time, string) {
	bl, st := ctx.bl, ctx.st
	if cap := ctx.ar.MemCapacity; cap > 0 && st.memSum[p]+bl.Mem() > cap {
		return excluded, 0, "memory capacity"
	}

	sOld := bl.Start()
	low := sOld
	if !b.IgnoreTiming {
		movedLB, consLB := ctx.depBounds(p)
		switch {
		case bl.Category == 1:
			low = min(max(movedLB, consLB, 0), sOld)
		case movedLB > sOld:
			return excluded, 0, "moved producers finish too late for the pinned start"
		}
	}
	if lcm && !ctx.meetsLCM(p, low) {
		return deferred, low, reasonLCM
	}

	s, reason := b.land(ctx, p)
	switch {
	case reason != "":
		return excluded, 0, reason
	case lcm && !ctx.meetsLCM(p, s):
		return overLCM, s, reasonLCM
	}
	return fits, s, ""
}

// land is the probe: the start at which the context block lands on p,
// eq. (4) aside, or why it cannot land there. It assumes p passed
// evaluate's memory and moved-producer checks.
func (b *Balancer) land(ctx *pctx, p arch.ProcID) (model.Time, string) {
	sOld := ctx.bl.Start()
	if b.IgnoreTiming {
		return sOld, ""
	}

	newStart := sOld
	if ctx.bl.Category == 2 {
		// Pinned by strict periodicity: the block cannot shift on its own.
		// Unprocessed producers are safe at the unchanged start (the
		// current schedule satisfies them and their ends only decrease),
		// and evaluate checked the moved ones, so only occupancy is left.
		if !ctx.conflictFree(p, sOld) {
			return 0, "no room at the pinned start"
		}
	} else {
		movedLB, consLB := ctx.depBounds(p)
		s, ok := b.earliestOn(ctx, p, movedLB, consLB)
		if !ok {
			return 0, reasonNoFit
		}
		newStart = s
	}

	// Cap the gain so that propagation to later-instance blocks stays
	// feasible (see DESIGN.md §4: the paper assumes this implicitly).
	if gain := sOld - newStart; gain > 0 {
		if maxG := ctx.cachedPropagationCap(); maxG < gain {
			newStart = sOld - maxG
			if !ctx.conflictFree(p, newStart) {
				// The capped position may conflict; fall back to staying put.
				if !ctx.conflictFree(p, sOld) {
					return 0, reasonNoFit
				}
				newStart = sOld
			}
		}
	}
	return newStart, ""
}

// landingOn is the feasible candidate of the context block landing on p
// at start s, scored under the policy.
func landingOn(pol Policy, ctx *pctx, p arch.ProcID, s model.Time) Candidate {
	gain, memSum := ctx.bl.Start()-s, ctx.st.memSum[p]
	return Candidate{Proc: p, Feasible: true, NewStart: s, Gain: gain, MemSum: memSum,
		Lambda: lambda(pol, gain, memSum)}
}

// relaxedPick is the pass without eq. (4) under the policy: the best
// landing over every processor, starting from inc (ok: inc is set), the
// best landing the first pass probed. The processors eq. (4) refused
// before their probe are deferred in st.evals, with the lower bound on
// their landing. A landing at the lower bound is the optimistic candidate
// of one: λ never decreases with the gain (memory-only ignores it), so no
// real landing there beats it. A deferred processor is probed only when
// the incumbent does not beat its optimistic candidate, and at most once
// per block: the probe is kept for the next policy that asks.
func (b *Balancer) relaxedPick(ctx *pctx, pol Policy, inc Candidate, ok bool) (Candidate, bool) {
	for i := range ctx.st.evals {
		e, p := &ctx.st.evals[i], arch.ProcID(i)
		if e.v != deferred || ok && better(pol, inc, landingOn(pol, ctx, p, e.s)) {
			continue
		}
		if !e.probed {
			s, reason := b.land(ctx, p)
			e.probed, e.lands, e.landing = true, reason == "", s
		}
		if e.lands {
			if c := landingOn(pol, ctx, p, e.landing); !ok || better(pol, c, inc) {
				inc, ok = c, true
			}
		}
	}
	return inc, ok
}

// earliestOn returns the earliest start of a first-category block on p
// compatible with the already-moved blocks, the reservations of
// unprocessed blocks, and the producer bounds — and whether it does not
// exceed the current start (moves never delay a block). Keeping the block
// at its unchanged start is always safe with respect to unprocessed
// producers (the current schedule already satisfies them and their starts
// can only decrease; a same-processor producer in a different block is at
// distance ≥ C by block construction), so the conservative bound only
// constrains actual gains.
func (b *Balancer) earliestOn(ctx *pctx, p arch.ProcID, movedLB, conservativeLB model.Time) (model.Time, bool) {
	sOld := ctx.bl.Start()
	lb := movedLB
	if conservativeLB > lb {
		lb = conservativeLB
	}
	if lb < 0 {
		lb = 0
	}
	if lb <= sOld {
		// The search covers sOld itself: when it fails, staying put
		// collides too.
		return ctx.earliestConflictFree(p, lb, sOld)
	}
	if movedLB <= sOld && ctx.conflictFree(p, sOld) {
		return sOld, true
	}
	return 0, false
}

// commit moves the block, updates per-processor state, and propagates the
// gain to later-instance blocks of the same tasks.
func (b *Balancer) commit(st *balState, bl *blocks.Block, p arch.ProcID, newStart model.Time) {
	ts := st.ts
	gain := bl.Start() - newStart
	bl.Shift(-gain)
	bl.Proc = p

	if !b.IgnoreTiming {
		if !st.anyMoved[p] {
			st.anyMoved[p] = true
			st.firstStart[p] = newStart
		}
		st.occ[p].insert(newStart, bl.End(ts), obstacle{task: -1}, true)
	}
	st.memSum[p] += bl.Mem()

	if gain <= 0 || bl.Category != 1 {
		return
	}
	// Strict periodicity propagation (§3.2): later instances of the tasks
	// whose first instances just gained must shift by the same amount.
	// st.shifted already flags bl's tasks (set by shift); taskBlocks
	// narrows the sweep to blocks actually holding instances of them.
	st.touched = st.touched[:0]
	for _, m := range bl.Members {
		task := m.Inst.Task
		if !st.shifted[task] {
			continue
		}
		for _, id := range st.blocksOf(task) {
			if int(id) == bl.ID || st.processed[id] || st.seen[id] {
				continue
			}
			st.seen[id] = true
			st.touched = append(st.touched, &st.blks[id])
		}
	}
	for _, other := range st.touched {
		st.seen[other.ID] = false
		// Reposition the reservations of the members that shift: their
		// sort key is their start.
		x := &st.occ[other.Proc]
		changed := false
		for mi := range other.Members {
			m := &other.Members[mi]
			task := m.Inst.Task
			if !st.shifted[task] {
				continue
			}
			ref, w := ownerRef{int32(other.ID), int32(mi)}, st.wcet[task]
			x.remove(m.Start, m.Start+w, ref)
			m.Start -= gain
			x.insert(m.Start, m.Start+w, obstacle{task: task, ref: ref}, true)
			changed = true
		}
		if changed {
			other.Recompute(ts)
			st.push(other.ID) // keep the queue key current
		}
	}
}

package core

import (
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
}

// GainTotal returns Lformer − Lnew, the paper's Gtotal.
func (r *Result) GainTotal() model.Time { return r.MakespanBefore - r.MakespanAfter }

// Balancer runs the load-balancing and memory-usage heuristic.
type Balancer struct {
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

	// script, when non-nil, forces the first len(script) placement
	// decisions (used by ExhaustiveBest). Not part of the public API.
	script []arch.ProcID

	// probe, when non-nil, gets a copy of every block's placement context
	// before the processors are evaluated (used by the differential tests
	// of the placement queries). A copy, so the context itself does not
	// escape to the heap. Not part of the public API.
	probe func(ctx pctx)
}

// balState carries the per-processor incremental state of one pass,
// over its own copy of the plan's blocks; the static tables are read
// from the plan. Everything is indexed by dense IDs (processor, task,
// block, instance) — the balancer's inner loops run millions of lookups
// per trial and map overhead used to dominate them.
type balState struct {
	*Plan

	// blks is this pass's copy of the plan's blocks: positions change as
	// blocks move and gains propagate.
	blks []blocks.Block

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

	// Scratch, reset after each block: shifted flags per task for the
	// block being placed, seen flags per block ID for the propagation
	// cap, and the blocks touched by gain propagation.
	shifted []bool
	seen    []bool
	touched []*blocks.Block

	// deferred holds, for the block being placed, the processors eq. (4)
	// refused before their probe (see relaxedPick).
	deferred []deferral
}

// deferral is a processor eq. (4) refused before its probe, with the
// lower bound on the block's landing there.
type deferral struct {
	p   arch.ProcID
	low model.Time
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

// Run balances the given instance-level schedule and returns the result:
// RunPlan on the schedule's plan. The input schedule is not modified.
func (b *Balancer) Run(input *sched.InstSchedule) (*Result, error) {
	return b.RunPlan(NewPlan(input))
}

// RunPlan balances the schedule the plan was built from and returns the
// result. The plan is not modified, so one plan serves every policy.
//
// The run is two-pass: the first pass caps gain propagation
// optimistically (assuming shifted blocks can later co-locate with their
// producers, as the paper's worked example does in its step 6). When
// that bet fails — some block ends up with no feasible processor
// (Forced > 0) — the balancer reruns with the conservative cap, under
// which every shift is provably realisable and no block is ever forced.
// Each pass starts from its own copy of the plan.
func (b *Balancer) RunPlan(pl *Plan) (*Result, error) {
	res, err := b.runPass(pl, false)
	if err != nil {
		return nil, err
	}
	if res.Forced == 0 {
		return res, nil
	}
	cons, err := b.runPass(pl, true)
	if err != nil {
		return nil, err
	}
	cons.ConservativePropagation = true
	return cons, nil
}

// runPass is one full balancing pass.
func (b *Balancer) runPass(pl *Plan, conservative bool) (*Result, error) {
	if len(pl.initBlocks) == 0 {
		return nil, fmt.Errorf("core: nothing to balance: no blocks")
	}
	ts, ar := pl.ts, pl.ar
	st := pl.newState()
	blks := make([]*blocks.Block, len(st.blks))
	for i := range st.blks {
		blks[i] = &st.blks[i]
	}

	res := &Result{
		Blocks:         blks,
		MakespanBefore: pl.makespan,
		MemBefore:      slices.Clone(pl.mem),
		Moves:          make([]Move, 0, len(blks)),
	}

	q := newBlockQueue(st.blks)
	processed := make([]bool, len(blks))
	for n := 0; n < len(blks); n++ {
		bl := q.pop(processed)
		st.removeResv(bl)
		var want *arch.ProcID
		if n < len(b.script) {
			want = &b.script[n]
		}
		mv, err := b.placeBlock(ts, ar, bl, processed, st, q, conservative, want)
		if err != nil {
			return nil, err
		}
		processed[bl.ID] = true
		if mv.Forced {
			res.Forced++
		}
		if mv.RelaxedLCM {
			res.RelaxedLCM++
		}
		res.Moves = append(res.Moves, mv)
	}

	out := sched.NewInstSchedule(ts, ar)
	for _, bl := range blks {
		for _, m := range bl.Members {
			out.Place(m.Inst, bl.Proc, m.Start)
		}
	}
	res.Schedule = out
	res.MakespanAfter = out.Makespan()
	res.MemAfter = out.MemVector()
	return res, nil
}

// blockQueue yields the unprocessed block with the smallest current
// start time (ties: processor, then first member identity) — the order
// nextBlock used to recompute by scanning every block every round. It
// is a lazy binary heap: gain propagation re-pushes the blocks it
// shifts, and stale entries (key no longer current, or block already
// processed) are discarded at pop time.
type blockQueue struct {
	entries []queueEntry
}

type queueEntry struct {
	start model.Time
	bl    *blocks.Block
}

func entryLess(a, b queueEntry) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	if a.bl.Proc != b.bl.Proc {
		return a.bl.Proc < b.bl.Proc
	}
	ai, bi := a.bl.Members[0].Inst, b.bl.Members[0].Inst
	if ai.Task != bi.Task {
		return ai.Task < bi.Task
	}
	return ai.K < bi.K
}

func newBlockQueue(blks []blocks.Block) *blockQueue {
	q := &blockQueue{entries: make([]queueEntry, 0, len(blks)+8)}
	for i := range blks {
		q.push(&blks[i])
	}
	return q
}

func (q *blockQueue) push(bl *blocks.Block) {
	q.entries = append(q.entries, queueEntry{start: bl.Start(), bl: bl})
	i := len(q.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(q.entries[i], q.entries[parent]) {
			break
		}
		q.entries[i], q.entries[parent] = q.entries[parent], q.entries[i]
		i = parent
	}
}

// pop returns the live minimum. Every block is guaranteed a current
// entry: blocks are pushed at construction and re-pushed whenever
// propagation changes their start, so a stale entry always has a fresher
// duplicate behind it.
func (q *blockQueue) pop(processed []bool) *blocks.Block {
	for len(q.entries) > 0 {
		top := q.entries[0]
		last := len(q.entries) - 1
		q.entries[0] = q.entries[last]
		q.entries = q.entries[:last]
		// Sift down.
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(q.entries) && entryLess(q.entries[l], q.entries[small]) {
				small = l
			}
			if r < len(q.entries) && entryLess(q.entries[r], q.entries[small]) {
				small = r
			}
			if small == i {
				break
			}
			q.entries[i], q.entries[small] = q.entries[small], q.entries[i]
			i = small
		}
		if processed[top.bl.ID] || top.start != top.bl.Start() {
			continue // stale: processed, or superseded by a re-push
		}
		return top.bl
	}
	return nil
}

// placeBlock evaluates every processor for bl, applies the policy,
// commits the move, and propagates gains to later-instance blocks.
//
// Each processor is probed at most once. evaluate settles a processor
// without its probe whenever a cheaper check already rejects it, and a
// processor eq. (4) rejected that way is probed only if the relaxed
// pass — eq. (4) left the block with no processor — may still pick it
// (relaxedPick). The outcome is the one of evaluating every processor
// in full, then again without eq. (4) when none passed.
func (b *Balancer) placeBlock(ts *model.TaskSet, ar *arch.Architecture, bl *blocks.Block,
	processed []bool, st *balState, q *blockQueue,
	conservative bool, want *arch.ProcID) (Move, error) {

	sOld := bl.Start()
	var cands []Candidate
	if b.RecordCandidates {
		cands = make([]Candidate, 0, ar.Procs)
	}
	ctx := newPctx(ts, ar, bl, processed, st, conservative)
	defer ctx.release()
	if b.probe != nil {
		b.probe(*ctx)
	}

	// eq. (4) is a timing filter: IgnoreTiming drops it with the others.
	lcm := !b.DisableLCMCondition && !b.IgnoreTiming
	// best is the policy's pick; over is the best landing that only
	// eq. (4) refuses, where a relaxed pass starts.
	var best, over Candidate
	haveBest, haveOver := false, false
	feasible := 0
	st.deferred = st.deferred[:0]
	for p := arch.ProcID(0); int(p) < ar.Procs; p++ {
		v, s, reason := b.evaluate(ctx, p, lcm)
		switch v {
		case fits:
			feasible++
			if c := b.landingOn(ctx, p, s); !haveBest || better(b.Policy, c, best) {
				best, haveBest = c, true
			}
		case overLCM:
			if o := b.landingOn(ctx, p, s); !haveOver || better(b.Policy, o, over) {
				over, haveOver = o, true
			}
		case deferred:
			st.deferred = append(st.deferred, deferral{p, s})
		}
		if b.RecordCandidates {
			c := Candidate{Proc: p, MemSum: st.memSum[p], Reason: reason}
			if v == fits {
				c = b.landingOn(ctx, p, s)
			}
			cands = append(cands, c)
		}
	}
	relaxed := false
	if !haveBest && lcm && want == nil {
		// eq. (4) left the block with no processor; retry with the exact
		// wrap-around check only.
		best, haveBest = b.relaxedPick(ctx, over, haveOver)
		relaxed = haveBest
	}

	// Scripted decision: override the policy with the forced processor,
	// failing the whole pass when it is infeasible at this step.
	if want != nil {
		v, s, reason := b.evaluate(ctx, *want, lcm)
		if v == deferred { // probe it now; eq. (4) still refuses it
			if s, reason = b.land(ctx, *want); reason == "" {
				v = overLCM
			}
		}
		if v != fits && v != overLCM {
			return Move{}, fmt.Errorf("core: scripted placement of block %d on P%d infeasible: %s",
				bl.ID, int(*want)+1, reason)
		}
		best, haveBest, relaxed = b.landingOn(ctx, *want, s), true, v == overLCM
	}

	mv := Move{BlockID: bl.ID, From: bl.Proc, OldStart: sOld, Category: bl.Category, FeasibleProcs: feasible}
	if b.RecordCandidates {
		mv.Candidates = cands
	}

	if !haveBest {
		// No processor feasible: keep the block where it is (recorded as
		// forced; final validation reports any resulting inconsistency).
		mv.To, mv.NewStart, mv.Gain, mv.Forced = bl.Proc, sOld, 0, true
		b.commit(ts, bl, processed, st, q, bl.Proc, sOld)
		return mv, nil
	}

	mv.To, mv.NewStart, mv.Gain, mv.RelaxedLCM = best.Proc, best.NewStart, best.Gain, relaxed
	b.commit(ts, bl, processed, st, q, best.Proc, best.NewStart)
	return mv, nil
}

// verdict is what evaluate learned about one processor.
type verdict uint8

const (
	fits     verdict = iota // the candidate is feasible
	excluded                // infeasible even with eq. (4) relaxed
	overLCM                 // lands at the returned start, which eq. (4) refuses
	deferred                // not probed: eq. (4) refuses the returned lower bound
)

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
// at start s.
func (b *Balancer) landingOn(ctx *pctx, p arch.ProcID, s model.Time) Candidate {
	gain, memSum := ctx.bl.Start()-s, ctx.st.memSum[p]
	return Candidate{Proc: p, Feasible: true, NewStart: s, Gain: gain, MemSum: memSum,
		Lambda: lambda(b.Policy, gain, memSum)}
}

// relaxedPick is the pass without eq. (4): the best landing over every
// processor, starting from inc (ok: inc is set), the best landing the
// first pass probed. The processors eq. (4) refused before their probe
// wait in st.deferred. A landing at the lower bound is the optimistic
// candidate of one: λ never decreases with the gain (memory-only
// ignores it), so no real landing there beats it. A deferred processor
// is probed only when the incumbent does not beat its optimistic
// candidate.
func (b *Balancer) relaxedPick(ctx *pctx, inc Candidate, ok bool) (Candidate, bool) {
	for _, d := range ctx.st.deferred {
		if ok && better(b.Policy, inc, b.landingOn(ctx, d.p, d.low)) {
			continue
		}
		if s, reason := b.land(ctx, d.p); reason == "" {
			if c := b.landingOn(ctx, d.p, s); !ok || better(b.Policy, c, inc) {
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
		if s, ok := ctx.earliestConflictFree(p, lb, sOld); ok {
			return s, true
		}
	}
	if movedLB <= sOld && ctx.conflictFree(p, sOld) {
		return sOld, true
	}
	return 0, false
}

// commit moves the block, updates per-processor state, and propagates the
// gain to later-instance blocks of the same tasks.
func (b *Balancer) commit(ts *model.TaskSet, bl *blocks.Block,
	processed []bool, st *balState, q *blockQueue, p arch.ProcID, newStart model.Time) {

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
	// st.shifted already flags bl's tasks (set by newPctx); taskBlocks
	// narrows the sweep to blocks actually holding instances of them.
	st.touched = st.touched[:0]
	for _, m := range bl.Members {
		task := m.Inst.Task
		if !st.shifted[task] {
			continue
		}
		for _, id := range st.blocksOf(task) {
			if int(id) == bl.ID || processed[id] || st.seen[id] {
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
			q.push(other) // keep the queue key current
		}
	}
}

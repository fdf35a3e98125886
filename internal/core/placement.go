package core

import (
	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/model"
)

// placement.go holds the feasibility machinery of the balancer: where a
// block may land without breaking non-overlap (including the ±H images of
// the repeating hyper-period pattern), honouring both the blocks already
// moved and the *reservations* of blocks not yet processed.
//
// Reservations are the sound generalisation the paper leaves implicit:
// every unprocessed block currently occupies its slot on its current
// processor, and since "stay where you are" must remain an option for it,
// no other block may be moved into that slot. Members of later-instance
// blocks of the tasks being moved are special: they will shift together
// with the candidate's gain, so their reservation is tested at the
// shifted position.

// pctx carries the inputs of one feasibility query. The shifted flags
// live in balState scratch (one []bool per run, not one map per block);
// release returns them.
type pctx struct {
	ts        *model.TaskSet
	ar        *arch.Architecture
	bl        *blocks.Block
	processed []bool
	st        *balState

	// cat1 gates the shift-along reservation rule; st.shifted[task] is
	// meaningful only when it is set.
	cat1 bool

	// conservative switches the propagation cap's producer rule from
	// "assume eventual co-location" (delay 0, what the paper's worked
	// example implicitly does) to "assume cross-processor" (delay C,
	// provably safe). See Balancer.Run for the two-pass strategy.
	conservative bool

	capOnce  bool
	capValue model.Time

	// Producer bounds, computed once per block by computeDeps (see
	// depBounds): the two best moved-producer bounds including the +C
	// delay, from distinct processors, and the conservative bound.
	depsOnce     bool
	movedTop1    model.Time
	movedTop2    model.Time
	movedTopProc arch.ProcID
	consLB       model.Time
}

// cachedPropagationCap computes propagationCap once per block (it does
// not depend on the candidate processor).
func (c *pctx) cachedPropagationCap() model.Time {
	if !c.capOnce {
		c.capValue = c.propagationCap()
		c.capOnce = true
	}
	return c.capValue
}

func newPctx(ts *model.TaskSet, ar *arch.Architecture, bl *blocks.Block,
	processed []bool, st *balState, conservative bool) *pctx {
	c := &pctx{ts: ts, ar: ar, bl: bl, processed: processed, st: st, conservative: conservative}
	if bl.Category == 1 {
		c.cat1 = true
		for _, m := range bl.Members {
			st.shifted[m.Inst.Task] = true
		}
	}
	return c
}

// release clears the scratch flags set by newPctx.
func (c *pctx) release() {
	if c.cat1 {
		for _, m := range c.bl.Members {
			c.st.shifted[m.Inst.Task] = false
		}
	}
}

// shifts reports whether instances of the task shift along with the
// candidate block's gain.
func (c *pctx) shifts(task model.TaskID) bool {
	return c.cat1 && c.st.shifted[task]
}

// depBounds returns the producer lower bounds on the block start for a
// landing on p. Producers in already moved blocks contribute their exact
// position and processor (movedLB); unprocessed producers contribute
// their current end plus a conservative C (conservativeLB), since they
// may end up anywhere.
//
// Only the +C delay of a moved producer depends on p, so one walk over
// the producers serves every processor (the trick of
// sched.(*Schedule).DepLowerBounds): a landing off the processor of the
// best cross-processor bound gets that bound; a landing on it gets the
// best of that producer without the delay and the runner-up from
// another processor. Every other producer on p is dominated by the
// former, and every other remote one by the latter.
func (c *pctx) depBounds(p arch.ProcID) (movedLB, conservativeLB model.Time) {
	if !c.depsOnce {
		c.computeDeps()
	}
	if p != c.movedTopProc {
		return c.movedTop1, c.consLB
	}
	movedLB = c.movedTop1 - c.ar.CommTime
	if c.movedTop2 > movedLB {
		movedLB = c.movedTop2
	}
	return movedLB, c.consLB
}

func (c *pctx) computeDeps() {
	ts, bl, st, comm := c.ts, c.bl, c.st, c.ar.CommTime
	c.depsOnce = true
	c.movedTop1, c.movedTop2, c.movedTopProc, c.consLB = 0, 0, -1, 0
	sOld := bl.Start()
	for _, m := range bl.Members {
		off := m.Start - sOld // member offset inside the block
		model.EachInstanceDep(ts, m.Inst.Task, m.Inst.K, func(src model.InstanceID) {
			ref := st.owner[ts.InstanceIndex(src)]
			if ref.bl == bl {
				return
			}
			v := ref.bl.Members[ref.mi].Start + st.wcet[src.Task] + comm - off
			if !c.processed[ref.bl.ID] {
				if v > c.consLB {
					c.consLB = v
				}
				return
			}
			switch pp := ref.bl.Proc; {
			case v > c.movedTop1:
				if pp != c.movedTopProc {
					c.movedTop2 = c.movedTop1
				}
				c.movedTop1, c.movedTopProc = v, pp
			case v > c.movedTop2 && pp != c.movedTopProc:
				c.movedTop2 = v
			}
		})
	}
}

// meetsLCM reports whether the context block, landing at start s on p,
// satisfies the Block (LCM) Condition, eq. (4): it must end within one
// hyper-period of the first block moved to p.
func (c *pctx) meetsLCM(p arch.ProcID, s model.Time) bool {
	first := c.st.firstStart[p]
	return first < 0 || s+c.bl.Exec() <= first+c.ts.HyperPeriod()
}

// conflictFree reports whether the candidate block, placed at start s on
// processor p (implying gain = sOld − s for category-1 blocks), overlaps
// neither a moved interval nor a reservation on p.
func (c *pctx) conflictFree(p arch.ProcID, s model.Time) bool {
	h := c.ts.HyperPeriod()
	sOld := c.bl.Start()
	gain := sOld - s
	span := c.bl.End(c.ts) - sOld
	end := s + span

	// A member that shifts along sits at its indexed start − gain, so the
	// reservation walk widens the window by gain above it for gain ≥ 0
	// and by −gain below it otherwise.
	var below, above model.Time
	if gain >= 0 {
		below = gain
	} else {
		above = -gain
	}
	mv, rv := &c.st.intervals[p], &c.st.resv[p]
	for _, d := range [3]model.Time{0, h, -h} {
		for k := mv.from(s - d); k < len(mv.starts) && mv.starts[k]+d < end; k++ {
			if s < mv.items[k]+d {
				return false
			}
		}
		for k := rv.from(s - d - above); k < len(rv.starts) && rv.starts[k]+d < end+below; k++ {
			task := rv.items[k].task
			pos := rv.starts[k]
			if c.shifts(task) {
				pos -= gain // sibling instance shifts along with the gain
			}
			if s < pos+c.st.wcet[task]+d && pos+d < end {
				return false
			}
		}
	}
	return true
}

// earliestConflictFree finds the smallest conflict-free start in
// [lb, cap] on p.
//
// Obstacles split into two kinds. Members that shift along with the
// candidate's gain keep a constant offset relative to the candidate, so
// their conflict status is independent of s: one check decides
// feasibility for every s. Fixed obstacles (moved intervals and
// non-shifting reservations) admit the classic jump-to-the-end search.
func (c *pctx) earliestConflictFree(p arch.ProcID, lb, cap model.Time) (model.Time, bool) {
	h := c.ts.HyperPeriod()
	sOld := c.bl.Start()
	span := c.bl.End(c.ts) - sOld

	// Relative (shift-along) obstacles: evaluate once at s = sOld. They
	// are members of the shifting tasks in unprocessed blocks on p.
	st := c.st
	if c.cat1 {
		for _, bm := range c.bl.Members {
			for _, other := range st.taskBlocks[bm.Inst.Task] {
				if other == c.bl || other.Proc != p || c.processed[other.ID] {
					continue
				}
				for _, m := range other.Members {
					if !st.shifted[m.Inst.Task] {
						continue
					}
					w := st.wcet[m.Inst.Task]
					for _, d := range [3]model.Time{0, h, -h} {
						if sOld < m.Start+w+d && m.Start+d < sOld+span {
							return 0, false // constant-offset collision at every s
						}
					}
				}
			}
		}
	}

	// Fixed obstacles: each (index, image) pair is a run already sorted
	// by start, six in all. One cursor per run sweeps s forward: a run
	// skips obstacles ending at or before s, jumps s past one overlapping
	// [s, s+span), and stops at the first one starting at or after
	// s+span. A jump in one run can bring an obstacle of a run already
	// swept into the window, so rounds repeat until one moves nothing.
	// Every jump skips only starts that overlap the obstacle jumped over,
	// and a cursor passes only obstacles that end at or before s, which s
	// never revisits: the fixpoint is the smallest conflict-free start.
	offs := [3]model.Time{0, h, -h}
	mv, rv := &st.intervals[p], &st.resv[p]
	var mc, rc [3]int
	for i, d := range offs {
		mc[i], rc[i] = mv.from(lb-d), rv.from(lb-d)
	}
	s := lb
	for moved := true; moved && s <= cap; {
		moved = false
		for i, d := range offs {
			k := mc[i]
			for ; k < len(mv.starts) && mv.starts[k]+d < s+span; k++ {
				if end := mv.items[k] + d; end > s {
					s, moved = end, true // jump past the obstacle
				}
			}
			mc[i] = k
			for k = rc[i]; k < len(rv.starts) && rv.starts[k]+d < s+span; k++ {
				task := rv.items[k].task
				if c.shifts(task) {
					continue
				}
				if end := rv.starts[k] + st.wcet[task] + d; end > s {
					s, moved = end, true
				}
			}
			rc[i] = k
		}
	}
	if s <= cap {
		return s, true
	}
	return 0, false
}

// propagationCap bounds the gain of a first-category block so that every
// later-instance member it would shift stays feasible where it currently
// sits: producers that do not shift must still complete in time
// (optimistically assuming eventual co-location, as the paper's step 6
// does, or conservatively with +C in the safe pass), and the shifted
// member must not slide into its unshifted left neighbours (moved
// intervals or other reservations on its processor).
func (c *pctx) propagationCap() model.Time {
	if !c.cat1 {
		return 0
	}
	h := c.ts.HyperPeriod()
	cap := h // effectively unbounded
	st := c.st

	for _, bm := range c.bl.Members {
		task := bm.Inst.Task
		for _, other := range st.taskBlocks[task] {
			if other == c.bl || c.processed[other.ID] || st.seen[other.ID] {
				continue
			}
			st.seen[other.ID] = true
			for _, m := range other.Members {
				if !st.shifted[m.Inst.Task] {
					continue
				}
				// Producer completion constraints.
				model.EachInstanceDep(c.ts, m.Inst.Task, m.Inst.K, func(src model.InstanceID) {
					if st.shifted[src.Task] {
						return // shifts by the same amount
					}
					ref := st.owner[c.ts.InstanceIndex(src)]
					end := ref.bl.Members[ref.mi].Start + c.ts.Task(src.Task).WCET
					if c.conservative {
						end += c.ar.CommTime
					}
					if g := m.Start - end; g < cap {
						cap = g
					}
				})
				// Non-overlap against unshifted left neighbours on the same
				// processor (direct and wrapped images).
				mEnd := m.Start + c.ts.Task(m.Inst.Task).WCET
				moved := &st.intervals[other.Proc]
				for k, ivStart := range moved.starts {
					ivEnd := moved.items[k]
					for _, d := range [3]model.Time{0, h, -h} {
						if ivEnd+d <= m.Start {
							if g := m.Start - (ivEnd + d); g < cap {
								cap = g
							}
						} else if ivStart+d < mEnd && m.Start < ivEnd+d {
							cap = 0 // already touching; no room to shift
						}
					}
				}
				rv := &st.resv[other.Proc]
				for k, nStart := range rv.starts {
					task := rv.items[k].task
					if st.shifted[task] {
						continue // shifts along (m itself included); relative distance preserved
					}
					nEnd := nStart + st.wcet[task]
					for _, d := range [3]model.Time{0, h, -h} {
						if nEnd+d <= m.Start {
							if g := m.Start - (nEnd + d); g < cap {
								cap = g
							}
						}
					}
				}
			}
		}
	}
	// Reset the seen scratch for the next caller.
	for _, bm := range c.bl.Members {
		for _, other := range st.taskBlocks[bm.Inst.Task] {
			st.seen[other.ID] = false
		}
	}
	if cap < 0 {
		cap = 0
	}
	return cap
}

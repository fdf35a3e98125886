package core

import (
	"slices"

	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/model"
)

// placement.go holds the feasibility machinery of the balancer: where a
// block may land without breaking non-overlap in steady state (the
// pattern repeats every hyper-period H, so occupancy is folded modulo H;
// see foldIndex), honouring both the blocks already moved and the
// *reservations* of blocks not yet processed.
//
// Reservations are the sound generalisation the paper leaves implicit:
// every unprocessed block currently occupies its slot on its current
// processor, and since "stay where you are" must remain an option for it,
// no other block may be moved into that slot. Members of later-instance
// blocks of the tasks being moved are special: they will shift together
// with the candidate's gain, so their reservation is tested at the
// shifted position.

// pctx carries the inputs of one feasibility query. The shifted flags
// live in balState scratch (one []bool per walk, not one map per block);
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

func newPctx(st *balState, bl *blocks.Block, conservative bool) *pctx {
	st.shift(bl)
	return &pctx{ts: st.ts, ar: st.ar, bl: bl, processed: st.processed, st: st,
		cat1: bl.Category == 1, conservative: conservative}
}

// release clears the scratch flags set by newPctx.
func (c *pctx) release() { c.st.unshift(c.bl) }

// shift flags the tasks of bl as shifting with its gain when it is a
// first-category block: the placement queries and the gain propagation
// of commit read the flags while bl is being placed.
func (st *balState) shift(bl *blocks.Block) {
	if bl.Category == 1 {
		for _, m := range bl.Members {
			st.shifted[m.Inst.Task] = true
		}
	}
}

// unshift clears the shifted flags of bl's tasks. Only a first-category
// block sets them, and they are clear between blocks, so clearing them
// for any block is safe.
func (st *balState) unshift(bl *blocks.Block) {
	for _, m := range bl.Members {
		st.shifted[m.Inst.Task] = false
	}
}

// shifts reports whether instances of the task shift along with the
// candidate block's gain; a moved block (task < 0) never does.
func (c *pctx) shifts(task model.TaskID) bool {
	return c.cat1 && task >= 0 && c.st.shifted[task]
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
			if int(ref.blk) == bl.ID {
				return
			}
			v := st.member(ref).Start + st.wcet[src.Task] + comm - off
			if !c.processed[ref.blk] {
				if v > c.consLB {
					c.consLB = v
				}
				return
			}
			switch pp := st.blks[ref.blk].Proc; {
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
// processor p (implying gain = sOld − s for category-1 blocks), collides
// in steady state with neither a moved interval nor a reservation on p.
func (c *pctx) conflictFree(p arch.ProcID, s model.Time) bool {
	_, ok := c.earliestConflictFree(p, s, s)
	return ok
}

// earliestConflictFree finds the smallest start in [lb, cap] on p at
// which the candidate collides with no obstacle in steady state.
//
// Obstacles split into two kinds. Members that shift along with the
// candidate's gain keep a constant offset relative to the candidate, so
// their conflict status is independent of s: one check at s = sOld
// decides feasibility for every s. Fixed obstacles (moved intervals and
// non-shifting reservations) repeat every H, so the folded index is one
// circular run sorted by start: a cursor from the first piece that can
// reach lb skips pieces ending at or before s, jumps s past one
// overlapping [s, s+span), and stops at the first piece starting at or
// after s+span, adding H each time it wraps. Every jump skips only starts
// that overlap the obstacle jumped over, and every piece passed ends at
// or before s, which never decreases: the first stop is the answer.
func (c *pctx) earliestConflictFree(p arch.ProcID, lb, cap model.Time) (model.Time, bool) {
	h := c.ts.HyperPeriod()
	sOld := c.bl.Start()
	span := c.bl.End(c.ts) - sOld
	st := c.st

	// Relative (shift-along) obstacles: the members of the shifting
	// tasks in unprocessed blocks on p.
	if c.cat1 {
		for _, bm := range c.bl.Members {
			for _, id := range st.blocksOf(bm.Inst.Task) {
				other := &st.blks[id]
				if other == c.bl || other.Proc != p || c.processed[id] {
					continue
				}
				for _, m := range other.Members {
					if st.shifted[m.Inst.Task] && model.FoldOverlap(sOld, span, m.Start, st.wcet[m.Inst.Task], h) {
						return 0, false // constant-offset collision at every s
					}
				}
			}
		}
	}

	x := &st.occ[p]
	if len(x.starts) == 0 && lb <= cap {
		return lb, true
	}
	r := model.Mod(lb, h)
	i, off := x.from(r), lb-r
	for s := lb; s <= cap; i++ {
		if i == len(x.starts) {
			i, off = 0, off+h // next lap of the ring
		}
		if x.starts[i]+off >= s+span {
			return s, true
		}
		if it := x.items[i]; it.end+off > s && !c.shifts(it.task) {
			s = it.end + off // jump past the obstacle
		}
	}
	return 0, false
}

// propagationCap bounds the gain of a first-category block so that every
// later-instance member it would shift stays feasible where it currently
// sits: producers that do not shift must still complete in time
// (optimistically assuming eventual co-location, as the paper's step 6
// does, or conservatively with +C in the safe pass), and the shifted
// member must not slide into a fixed obstacle on its processor (leftRoom).
func (c *pctx) propagationCap() model.Time {
	if !c.cat1 {
		return 0
	}
	cap := c.ts.HyperPeriod() // effectively unbounded
	st := c.st

	for _, bm := range c.bl.Members {
		task := bm.Inst.Task
		for _, id := range st.blocksOf(task) {
			other := &st.blks[id]
			if other == c.bl || c.processed[id] || st.seen[id] {
				continue
			}
			st.seen[id] = true
			for _, m := range other.Members {
				if !st.shifted[m.Inst.Task] {
					continue
				}
				// Producer completion constraints.
				model.EachInstanceDep(c.ts, m.Inst.Task, m.Inst.K, func(src model.InstanceID) {
					if st.shifted[src.Task] {
						return // shifts by the same amount
					}
					end := st.member(st.owner[c.ts.InstanceIndex(src)]).Start + st.wcet[src.Task]
					if c.conservative {
						end += c.ar.CommTime
					}
					if g := m.Start - end; g < cap {
						cap = g
					}
				})
				cap = c.leftRoom(other.Proc, m.Start, st.wcet[m.Inst.Task], cap)
			}
		}
	}
	// Reset the seen scratch for the next caller.
	for _, bm := range c.bl.Members {
		for _, id := range st.blocksOf(bm.Inst.Task) {
			st.seen[id] = false
		}
	}
	if cap < 0 {
		cap = 0
	}
	return cap
}

// leftRoom returns how far a shifted member occupying [ms, ms+w) on p may
// move left before it meets a fixed obstacle in steady state, at most
// limit: 0 when it already collides with one, else the distance from its
// folded start back to the nearest folded obstacle end. Shifting members
// (the member itself included) keep their relative distance and are
// skipped.
func (c *pctx) leftRoom(p arch.ProcID, ms, w, limit model.Time) model.Time {
	x := &c.st.occ[p]
	n := len(x.starts)
	if n == 0 || limit <= 0 {
		return limit
	}
	h := c.ts.HyperPeriod()
	r := model.Mod(ms, h)
	at, _ := slices.BinarySearch(x.starts, r)
	// A piece starting inside [r, r+w) collides.
	for i, off := at, model.Time(0); ; i++ {
		if i == n {
			i, off = 0, off+h
		}
		if x.starts[i]+off >= r+w {
			break
		}
		if !c.shifts(x.items[i].task) {
			return 0
		}
	}
	// Walk left from r: a piece ending past r collides, and the walk ends
	// once no piece further left can end within limit of r.
	for i, off := at-1, model.Time(0); ; i-- {
		if i < 0 {
			i, off = n-1, off-h
		}
		if x.starts[i]+off+x.maxLen <= r-limit {
			return limit
		}
		it := x.items[i]
		if c.shifts(it.task) {
			continue
		}
		if e := it.end + off; e > r {
			return 0
		} else if r-e < limit {
			limit = r - e
		}
	}
}

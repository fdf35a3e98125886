// Package blocks groups scheduled task instances into the paper's blocks
// (§3.1): a block is one instance, or several dependent instances
// scheduled on the same processor so tightly that moving any one of them
// separately would require an inter-processor communication that does not
// fit in the slack between them (equations 1 and 2 of the paper).
//
// Two dependent instances u → v on the same processor belong to the same
// block when start(v) < end(u) + C: there is not enough room between them
// for the communication a separation would create. When the gap is at
// least C, the instances form separate blocks — each can move on its own.
//
// Blocks fall into two categories (§3.1):
//
//	Category 1: every member is the *first* instance (k = 0) of its task.
//	  Moving such a block can decrease its start time, improving the total
//	  execution time.
//	Category 2: the earliest member is a later instance (k > 0). Its start
//	  time is pinned by strict periodicity to the first-category block
//	  holding the first instance, and decreases only by propagation.
package blocks

import (
	"cmp"
	"slices"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/sched"
)

// Member is one instance inside a block with its current start time.
type Member struct {
	Inst  model.InstanceID
	Start model.Time
}

// Block is a group of dependent co-scheduled instances that moves as a
// unit.
type Block struct {
	ID       int
	Proc     arch.ProcID // processor currently hosting the block
	Members  []Member    // sorted by start time at construction
	Category int         // 1 or 2

	exec  model.Time // ΣE of members
	mem   model.Mem  // Σm of members (per-instance accounting)
	start model.Time // cached min member start
	end   model.Time // cached max member end
}

// Start returns the block's start time: the smallest member start.
func (b *Block) Start() model.Time { return b.start }

// End returns the completion time of the last-finishing member.
func (b *Block) End(ts *model.TaskSet) model.Time { return b.end }

// Recompute refreshes the cached start/end bounds after member starts
// changed individually (per-task propagation shifts).
func (b *Block) Recompute(ts *model.TaskSet) {
	b.start = b.Members[0].Start
	b.end = b.Members[0].Start + ts.Task(b.Members[0].Inst.Task).WCET
	for _, m := range b.Members[1:] {
		if m.Start < b.start {
			b.start = m.Start
		}
		if e := m.Start + ts.Task(m.Inst.Task).WCET; e > b.end {
			b.end = e
		}
	}
}

// Exec returns the sum of member execution times (the E_B of the Block
// Condition).
func (b *Block) Exec() model.Time { return b.exec }

// Mem returns the sum of member memory amounts (the m_B of the cost
// function).
func (b *Block) Mem() model.Mem { return b.mem }

// Shift rigidly moves every member by delta (negative = earlier).
func (b *Block) Shift(delta model.Time) {
	for i := range b.Members {
		b.Members[i].Start += delta
	}
	b.start += delta
	b.end += delta
}

// Build constructs the blocks of an instance-level schedule, one set per
// processor, and returns them sorted by (start time, processor, first
// member). Block IDs are assigned in that order. The blocks are the
// elements of one slice, and their members share one backing (see
// BuildFlat).
func Build(is *sched.InstSchedule) []*Block {
	blks, _ := BuildFlat(is)
	out := make([]*Block, len(blks))
	for i := range blks {
		out[i] = &blks[i]
	}
	return out
}

// BuildFlat is Build with the blocks stored flat: blks[i] is the block
// with ID i, and backing holds every member, block by block in ID order,
// so blks[i].Members is the backing window that starts after the members
// of blocks 0…i−1. Each window is capped at its length, so an append to
// one block's members cannot overwrite the next block's.
func BuildFlat(is *sched.InstSchedule) (blks []Block, backing []Member) {
	ts := is.TS
	c := is.Arch.CommTime

	// One union-find forest over the dense instance indexes serves every
	// processor: a dependence links two instances only when both sit on
	// the processor being scanned.
	n := ts.TotalInstances()
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = int32(i)
	}
	placed := 0
	for p := arch.ProcID(0); int(p) < is.Arch.Procs; p++ {
		insts := is.InstancesOn(p)
		placed += len(insts)
		for _, iid := range insts {
			pl, _ := is.Placement(iid)
			i := ts.InstanceIndex(iid)
			// Union instances linked by a dependence with slack < C.
			model.EachInstanceDep(ts, iid.Task, iid.K, func(src model.InstanceID) {
				if ps, ok := is.Placement(src); ok && ps.Proc == p && pl.Start < is.End(src)+c {
					uf.union(i, ts.InstanceIndex(src))
				}
			})
		}
	}

	// A group's first member is the first of its instances in the
	// processor listing, which is sorted by (start, task, k) — the order
	// of members inside a block. count[r] sizes the group of root r.
	type group struct {
		first Member
		proc  int32
		root  int32
	}
	ngroups := 0
	for p := arch.ProcID(0); int(p) < is.Arch.Procs; p++ {
		for _, iid := range is.InstancesOn(p) {
			if i := int32(ts.InstanceIndex(iid)); uf.find(i) == i {
				ngroups++
			}
		}
	}
	groups := make([]group, 0, ngroups)
	count := make([]int32, n)
	for p := arch.ProcID(0); int(p) < is.Arch.Procs; p++ {
		for _, iid := range is.InstancesOn(p) {
			r := uf.find(int32(ts.InstanceIndex(iid)))
			if count[r] == 0 {
				pl, _ := is.Placement(iid)
				groups = append(groups, group{first: Member{Inst: iid, Start: pl.Start}, proc: int32(p), root: r})
			}
			count[r]++
		}
	}
	slices.SortFunc(groups, func(a, b group) int {
		if c := cmp.Compare(a.first.Start, b.first.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.proc, b.proc); c != 0 {
			return c
		}
		if c := cmp.Compare(a.first.Inst.Task, b.first.Inst.Task); c != 0 {
			return c
		}
		return cmp.Compare(a.first.Inst.K, b.first.Inst.K)
	})

	// Lay the blocks out in ID order; count[r] becomes the next free
	// member slot of root r's block.
	blks = make([]Block, len(groups))
	backing = make([]Member, placed)
	off := int32(0)
	for id, g := range groups {
		size := count[g.root]
		blks[id] = Block{ID: id, Proc: arch.ProcID(g.proc), Category: 1, Members: backing[off : off+size : off+size]}
		count[g.root] = off
		off += size
	}
	for p := arch.ProcID(0); int(p) < is.Arch.Procs; p++ {
		for _, iid := range is.InstancesOn(p) {
			r := uf.find(int32(ts.InstanceIndex(iid)))
			pl, _ := is.Placement(iid)
			backing[count[r]] = Member{Inst: iid, Start: pl.Start}
			count[r]++
		}
	}
	for i := range blks {
		b := &blks[i]
		for _, m := range b.Members {
			b.exec += ts.Task(m.Inst.Task).WCET
			b.mem += ts.Task(m.Inst.Task).Mem
		}
		// Category 2 when the first member is a later instance of its
		// task (§3.1: "a block whose the first task is another instance
		// than the first instance of this task").
		if b.Members[0].Inst.K > 0 {
			b.Category = 2
		}
		b.Recompute(ts)
	}
	return blks, backing
}

// unionFind is a minimal disjoint-set forest: uf[x] is the parent of
// x, and a root is its own parent. Union links by index (the smaller root
// wins), which with path halving keeps the trees shallow enough for the
// few members a block holds.
type unionFind []int32

func (uf unionFind) find(x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

func (uf unionFind) union(a, b int) {
	ra, rb := uf.find(int32(a)), uf.find(int32(b))
	if ra < rb {
		uf[rb] = ra
	} else {
		uf[ra] = rb
	}
}

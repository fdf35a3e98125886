package core

import (
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/model"
	"repro/internal/sched"
)

// Plan is the policy-independent input of a balancing run, built once
// per schedule: its blocks (§3.1) at their initial positions, the static
// lookup tables, and the initial obstacle index of every processor, in
// which each block is reserved where it sits. Any number of runs — every
// policy, the conservative rerun, scripted passes — start from one Plan:
// each pass works on a private copy, and nothing writes the plan, so it
// may be shared by concurrent runs.
type Plan struct {
	ts *model.TaskSet
	ar *arch.Architecture

	// initBlocks holds the blocks in ID order at their initial
	// positions, and initMembers their members, block by block
	// (blocks.BuildFlat's layout).
	initBlocks  []blocks.Block
	initMembers []blocks.Member

	// owner[i] locates the block member holding the instance with dense
	// index i (block membership never changes during a run).
	owner []ownerRef

	// taskBlockIDs lists the IDs of the blocks holding instances of each
	// task, ascending: those of task t are
	// taskBlockIDs[taskBlockOff[t]:taskBlockOff[t+1]] (see blocksOf).
	taskBlockOff []int32
	taskBlockIDs []int32

	// wcet[t] caches the WCET of task t: the conflict loops read it per
	// member visit and a Task struct copy per read is measurable.
	wcet []model.Time

	// initOcc[p] is processor p's obstacle index before any move: the
	// members of every block on p. room[p] sizes a pass's copy of it: its
	// pieces plus one moved block per block on p, so later insertions
	// rarely reallocate.
	initOcc []foldIndex
	room    []int

	makespan model.Time
	mem      []model.Mem
}

// ownerRef locates one instance inside its owning block: the block ID
// plus the member position, so member lookups are O(1) instead of a scan.
type ownerRef struct {
	blk, mi int32
}

// NewPlan builds the plan of an instance-level schedule. The schedule is
// read, never modified, and the plan keeps no reference to it.
func NewPlan(is *sched.InstSchedule) *Plan {
	ts, ar := is.TS, is.Arch
	blks, members := blocks.BuildFlat(is)
	pl := &Plan{
		ts: ts, ar: ar,
		initBlocks: blks, initMembers: members,
		owner:    make([]ownerRef, ts.TotalInstances()),
		wcet:     make([]model.Time, ts.Len()),
		makespan: is.Makespan(),
		mem:      is.MemVector(),
	}
	for i := range pl.wcet {
		pl.wcet[i] = ts.Task(model.TaskID(i)).WCET
	}

	// The per-task block lists in two passes over the members: count the
	// blocks of each task, then fill. last[t] is the last block counted for task t, so a
	// block holding several instances of one task counts once.
	last := make([]int32, ts.Len())
	for i := range last {
		last[i] = -1
	}
	pl.taskBlockOff = make([]int32, ts.Len()+1)
	for id := range blks {
		for _, m := range blks[id].Members {
			if t := m.Inst.Task; last[t] != int32(id) {
				last[t] = int32(id)
				pl.taskBlockOff[t+1]++
			}
		}
	}
	for t := range ts.Len() {
		pl.taskBlockOff[t+1] += pl.taskBlockOff[t]
		last[t] = -1
	}
	pl.taskBlockIDs = make([]int32, pl.taskBlockOff[ts.Len()])
	next := slices.Clone(pl.taskBlockOff[:ts.Len()])
	for id := range blks {
		for mi, m := range blks[id].Members {
			pl.owner[ts.InstanceIndex(m.Inst)] = ownerRef{blk: int32(id), mi: int32(mi)}
			if t := m.Inst.Task; last[t] != int32(id) {
				last[t] = int32(id)
				pl.taskBlockIDs[next[t]] = int32(id)
				next[t]++
			}
		}
	}

	// The plan's indexes never grow after this: size them for one piece
	// per member. A member that wraps H adds a second piece, and an index
	// that outgrows its room moves to an array of its own.
	pl.room = make([]int, ar.Procs)
	for id := range blks {
		pl.room[blks[id].Proc] += len(blks[id].Members)
	}
	pl.initOcc = newFoldIndexes(ts.HyperPeriod(), pl.room)
	for id := range blks {
		bl := &blks[id]
		for mi, m := range bl.Members {
			pl.initOcc[bl.Proc].insert(m.Start, m.Start+pl.wcet[m.Inst.Task],
				obstacle{task: m.Inst.Task, ref: ownerRef{blk: int32(id), mi: int32(mi)}}, false)
		}
	}
	for p := range pl.initOcc {
		sort.Sort(&pl.initOcc[p])
		pl.room[p] = len(pl.initOcc[p].starts)
	}
	for id := range blks {
		pl.room[blks[id].Proc]++
	}
	return pl
}

// blocksOf returns the IDs of the blocks holding instances of task t.
func (pl *Plan) blocksOf(t model.TaskID) []int32 {
	return pl.taskBlockIDs[pl.taskBlockOff[t]:pl.taskBlockOff[t+1]]
}

// newState copies the plan into the state of one pass: the blocks and
// their members, and the obstacle indexes, with nothing moved yet.
func (pl *Plan) newState() *balState {
	procs := pl.ar.Procs
	blks := slices.Clone(pl.initBlocks)
	members := slices.Clone(pl.initMembers)
	off := 0
	for i := range blks {
		n := len(blks[i].Members)
		blks[i].Members = members[off : off+n : off+n]
		off += n
	}
	occ := newFoldIndexes(pl.ts.HyperPeriod(), pl.room)
	for p := range occ {
		occ[p].starts = append(occ[p].starts, pl.initOcc[p].starts...)
		occ[p].items = append(occ[p].items, pl.initOcc[p].items...)
		occ[p].maxLen = pl.initOcc[p].maxLen
	}
	st := &balState{
		Plan:       pl,
		blks:       blks,
		occ:        occ,
		firstStart: make([]model.Time, procs),
		memSum:     make([]model.Mem, procs),
		anyMoved:   make([]bool, procs),
		shifted:    make([]bool, pl.ts.Len()),
		seen:       make([]bool, len(blks)),
		deferred:   make([]deferral, 0, procs),
	}
	for p := range st.firstStart {
		st.firstStart[p] = -1
	}
	return st
}

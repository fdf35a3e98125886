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
// lookup tables, and the initial state of a pass, in which each block is
// reserved where it sits. Any number of runs — every policy, the
// conservative rerun — start from one Plan: each pass works on a clone of
// the initial state, and nothing writes the plan, so it may be shared by
// concurrent runs.
type Plan struct {
	ts *model.TaskSet
	ar *arch.Architecture

	// init is the state of a pass before its first block: the blocks in
	// ID order at their initial positions, every processor's obstacle
	// index holding the members of the blocks on it, and the queue of
	// every block. Passes clone it (newState) and never write it.
	init *balState

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

	// room[p] sizes a pass's copy of processor p's obstacle index: its
	// initial pieces plus one moved block per block on p, so later
	// insertions rarely reallocate.
	room []int

	makespan model.Time
	mem      []model.Mem
}

// ownerRef locates one instance inside its owning block: the block ID
// plus the member position, so member lookups are O(1) instead of a scan.
type ownerRef struct {
	blk, mi int32
}

// NewPlan builds the plan of an instance-level schedule. It only reads
// the schedule, and the plan keeps no reference to it.
func NewPlan(is *sched.InstSchedule) *Plan {
	ts, ar := is.TS, is.Arch
	blks, members := blocks.BuildFlat(is)
	pl := &Plan{
		ts: ts, ar: ar,
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

	// The initial indexes never grow: size them for one piece per
	// member. A member that wraps H adds a second piece, and an index
	// that outgrows its room moves to an array of its own.
	pl.room = make([]int, ar.Procs)
	for id := range blks {
		pl.room[blks[id].Proc] += len(blks[id].Members)
	}
	occ := newFoldIndexes(ts.HyperPeriod(), pl.room)
	for id := range blks {
		bl := &blks[id]
		for mi, m := range bl.Members {
			occ[bl.Proc].insert(m.Start, m.Start+pl.wcet[m.Inst.Task],
				obstacle{task: m.Inst.Task, ref: ownerRef{blk: int32(id), mi: int32(mi)}}, false)
		}
	}
	for p := range occ {
		sort.Sort(&occ[p])
		pl.room[p] = len(occ[p].starts)
	}
	for id := range blks {
		pl.room[blks[id].Proc]++
	}

	st := &balState{
		Plan:       pl,
		blks:       blks,
		members:    members,
		occ:        occ,
		firstStart: make([]model.Time, ar.Procs),
		memSum:     make([]model.Mem, ar.Procs),
		anyMoved:   make([]bool, ar.Procs),
		processed:  make([]bool, len(blks)),
		queue:      make([]queueEntry, 0, len(blks)),
		shifted:    make([]bool, ts.Len()),
		seen:       make([]bool, len(blks)),
		evals:      make([]eval, 0, ar.Procs),
	}
	for p := range st.firstStart {
		st.firstStart[p] = -1
	}
	for id := range blks {
		st.push(id)
	}
	pl.init = st
	return pl
}

// blocksOf returns the IDs of the blocks holding instances of task t.
func (pl *Plan) blocksOf(t model.TaskID) []int32 {
	return pl.taskBlockIDs[pl.taskBlockOff[t]:pl.taskBlockOff[t+1]]
}

// newState returns the state of a new pass or search: a clone of the
// plan's initial state, with nothing moved yet.
func (pl *Plan) newState() *balState { return pl.init.clone() }

// clone returns an independent copy of the state: the blocks and their
// members, the obstacle indexes, the per-processor tallies, the processed
// flags and the queue, so nothing done to the copy reaches the original.
// The queue holds block IDs, which stay valid in the copy. The per-block
// scratch is fresh: it is clear between blocks, and a copy taken while a
// block is placed (branches) sets its own shifted flags.
func (st *balState) clone() *balState {
	procs := st.ar.Procs
	blks, members := slices.Clone(st.blks), slices.Clone(st.members)
	off := 0
	for i := range blks {
		n := len(blks[i].Members)
		blks[i].Members = members[off : off+n : off+n]
		off += n
	}
	occ := newFoldIndexes(st.ts.HyperPeriod(), st.room)
	for p := range occ {
		occ[p].starts = append(occ[p].starts, st.occ[p].starts...)
		occ[p].items = append(occ[p].items, st.occ[p].items...)
		occ[p].maxLen = st.occ[p].maxLen
	}
	return &balState{
		Plan:       st.Plan,
		blks:       blks,
		members:    members,
		occ:        occ,
		firstStart: slices.Clone(st.firstStart),
		memSum:     slices.Clone(st.memSum),
		anyMoved:   slices.Clone(st.anyMoved),
		processed:  slices.Clone(st.processed),
		queue:      append(make([]queueEntry, 0, len(st.queue)+8), st.queue...),
		shifted:    make([]bool, len(st.shifted)),
		seen:       make([]bool, len(blks)),
		evals:      make([]eval, 0, procs),
	}
}

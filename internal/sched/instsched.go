package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/model"
)

// InstPlacement is the assignment of one task instance.
type InstPlacement struct {
	Proc  arch.ProcID
	Start model.Time
}

// InstSchedule places every task *instance* individually: the
// load-balancing heuristic may send different instances of the same task
// to different processors while preserving their strictly periodic start
// times. It is the output representation of the balancer.
//
// Placements live in a dense task-major slice indexed by
// model.TaskSet.InstanceIndex — exactly TotalInstances() entries, no
// hashing — and each processor's occupancy listing, ordered by (start,
// task, k), is built once by NewInstSchedule. Nothing changes a schedule
// after that, so any number of readers may share one.
type InstSchedule struct {
	TS   *model.TaskSet
	Arch *arch.Architecture

	// pl[i] is the placement of the instance with InstanceIndex i;
	// Proc == Unplaced marks an unset entry.
	pl []InstPlacement

	// byProc[p] is the instance listing of processor p, sorted by
	// (start, task, k); the listings share one backing array.
	byProc [][]model.InstanceID
}

// NewPlacements returns the dense placements of ts, indexed by
// model.TaskSet.InstanceIndex, with every instance Unplaced: the
// argument NewInstSchedule expects, before it is filled in.
func NewPlacements(ts *model.TaskSet) []InstPlacement {
	pl := make([]InstPlacement, ts.TotalInstances())
	for i := range pl {
		pl[i].Proc = Unplaced
	}
	return pl
}

// NewInstSchedule returns the instance-level schedule with placements
// pl, indexed by model.TaskSet.InstanceIndex (len(pl) must be
// TotalInstances(); Proc == Unplaced leaves an instance unplaced). The
// schedule takes pl over: the caller must not write it afterwards.
func NewInstSchedule(ts *model.TaskSet, a *arch.Architecture, pl []InstPlacement) *InstSchedule {
	if len(pl) != ts.TotalInstances() {
		panic(fmt.Sprintf("sched: %d placements for %d instances", len(pl), ts.TotalInstances()))
	}
	is := &InstSchedule{TS: ts, Arch: a, pl: pl, byProc: make([][]model.InstanceID, a.Procs)}
	// Count each processor's instances, carve its listing out of one
	// backing array, then fill the listings in task-major order.
	count := make([]int, a.Procs)
	for _, p := range pl {
		if p.Proc != Unplaced {
			count[p.Proc]++
		}
	}
	all := make([]model.InstanceID, len(pl))
	for p, off := range count {
		is.byProc[p], all = all[:0:off], all[off:]
	}
	n := ts.Len()
	for i := 0; i < n; i++ {
		id := model.TaskID(i)
		idx := ts.InstanceIndex(model.InstanceID{Task: id})
		for k := 0; k < ts.Instances(id); k++ {
			if p := pl[idx+k].Proc; p != Unplaced {
				is.byProc[p] = append(is.byProc[p], model.InstanceID{Task: id, K: k})
			}
		}
	}
	for p := range is.byProc {
		slices.SortFunc(is.byProc[p], func(a, b model.InstanceID) int {
			if c := cmp.Compare(is.startOf(a), is.startOf(b)); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Task, b.Task); c != 0 {
				return c
			}
			return cmp.Compare(a.K, b.K)
		})
	}
	return is
}

// FromSchedule expands a task-level schedule: instance k of each task
// inherits the task's processor and start S + k·T.
func FromSchedule(s *Schedule) *InstSchedule {
	pl := NewPlacements(s.TS)
	for i := 0; i < s.TS.Len(); i++ {
		id := model.TaskID(i)
		p := s.Placement(id)
		if p.Proc == Unplaced {
			continue
		}
		idx := s.TS.InstanceIndex(model.InstanceID{Task: id})
		for k := 0; k < s.TS.Instances(id); k++ {
			pl[idx+k] = InstPlacement{Proc: p.Proc, Start: s.InstanceStart(id, k)}
		}
	}
	return NewInstSchedule(s.TS, s.Arch, pl)
}

// Placement returns the placement of one instance and whether it is set.
func (is *InstSchedule) Placement(iid model.InstanceID) (InstPlacement, bool) {
	pl := is.pl[is.TS.InstanceIndex(iid)]
	return pl, pl.Proc != Unplaced
}

func (is *InstSchedule) startOf(iid model.InstanceID) model.Time {
	return is.pl[is.TS.InstanceIndex(iid)].Start
}

// InstancesOn returns the instances on processor p sorted by start time
// (ties: task, then k). It allocates nothing; callers must not mutate
// the result.
func (is *InstSchedule) InstancesOn(p arch.ProcID) []model.InstanceID {
	return is.byProc[p]
}

// End returns the completion time of an instance.
func (is *InstSchedule) End(iid model.InstanceID) model.Time {
	return is.pl[is.TS.InstanceIndex(iid)].Start + is.TS.Task(iid.Task).WCET
}

// Makespan returns the completion time of the last placed instance.
func (is *InstSchedule) Makespan() model.Time {
	var m model.Time
	n := is.TS.Len()
	for i := 0; i < n; i++ {
		id := model.TaskID(i)
		w := is.TS.Task(id).WCET
		idx := is.TS.InstanceIndex(model.InstanceID{Task: id})
		for k := 0; k < is.TS.Instances(id); k++ {
			if pl := is.pl[idx+k]; pl.Proc != Unplaced && pl.Start+w > m {
				m = pl.Start + w
			}
		}
	}
	return m
}

// MemVector returns per-processor memory with the paper's per-instance
// accounting.
func (is *InstSchedule) MemVector() []model.Mem {
	v := make([]model.Mem, is.Arch.Procs)
	n := is.TS.Len()
	for i := 0; i < n; i++ {
		id := model.TaskID(i)
		mem := is.TS.Task(id).Mem
		idx := is.TS.InstanceIndex(model.InstanceID{Task: id})
		for k := 0; k < is.TS.Instances(id); k++ {
			if pl := is.pl[idx+k]; pl.Proc != Unplaced {
				v[pl.Proc] += mem
			}
		}
	}
	return v
}

// Validate checks the instance-level constraints:
//
//   - completeness: every instance of every task is placed;
//   - strict periodicity: start(t,k) = start(t,0) + k·T;
//   - non-overlap on each processor in steady state: the pattern
//     repeats every hyper-period H, so every image k·H counts;
//   - precedence: producer end (+C when the two instances sit on
//     different processors) ≤ consumer start, per instance pair;
//   - memory capacity, per-instance accounting, when bounded.
func (is *InstSchedule) Validate() []ValidationError {
	var errs []ValidationError
	add := func(kind, format string, args ...any) {
		errs = append(errs, ValidationError{Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}
	name := func(iid model.InstanceID) string {
		return fmt.Sprintf("%s#%d", is.TS.Task(iid.Task).Name, iid.K+1)
	}

	for _, iid := range model.ExpandInstances(is.TS) {
		if _, ok := is.Placement(iid); !ok {
			add("placement", "instance %s is not placed", name(iid))
		}
	}
	if len(errs) > 0 {
		return errs
	}

	for i := 0; i < is.TS.Len(); i++ {
		id := model.TaskID(i)
		t := is.TS.Task(id)
		s0 := is.startOf(model.InstanceID{Task: id})
		if s0 < 0 {
			add("placement", "task %q first instance starts at %d", t.Name, s0)
		}
		for k := 1; k < is.TS.Instances(id); k++ {
			want := model.InstanceStart(s0, t.Period, k)
			got := is.startOf(model.InstanceID{Task: id, K: k})
			if got != want {
				add("periodicity", "%s#%d starts at %d, strict periodicity requires %d", t.Name, k+1, got, want)
			}
		}
	}

	h := is.TS.HyperPeriod()
	var occs []occupancy
	for p := arch.ProcID(0); int(p) < is.Arch.Procs; p++ {
		ids := is.InstancesOn(p)
		occs = occs[:0]
		for i, iid := range ids {
			occs = append(occs, occupancy{is.startOf(iid), is.TS.Task(iid.Task).WCET, i})
		}
		foldConflicts(h, occs, func(a, b int) {
			add("overlap", "%s and %s overlap on %s", name(ids[a]), name(ids[b]), is.Arch.ProcName(p))
		})
	}

	for i := 0; i < is.TS.Len(); i++ {
		dst := model.TaskID(i)
		for k := 0; k < is.TS.Instances(dst); k++ {
			ci := model.InstanceID{Task: dst, K: k}
			cpl, _ := is.Placement(ci)
			model.EachInstanceDep(is.TS, dst, k, func(src model.InstanceID) {
				spl, _ := is.Placement(src)
				end := is.End(src)
				if spl.Proc != cpl.Proc {
					end += is.Arch.CommTime
				}
				if end > cpl.Start {
					add("precedence", "%s (ends %d%s) not complete before %s starts at %d",
						name(src), is.End(src), commNote(spl.Proc != cpl.Proc, is.Arch.CommTime), name(ci), cpl.Start)
				}
			})
		}
	}

	if cap := is.Arch.MemCapacity; cap > 0 {
		for p, m := range is.MemVector() {
			if m > cap {
				add("memory", "%s needs %d memory units, capacity %d", is.Arch.ProcName(arch.ProcID(p)), m, cap)
			}
		}
	}
	return errs
}

func commNote(cross bool, c model.Time) string {
	if cross {
		return fmt.Sprintf(" +C=%d", c)
	}
	return ""
}

// Package sched provides the distributed-scheduling substrate: the
// schedule representation (placement of strictly periodic tasks onto
// processors, with derived inter-processor communications) and the rapid
// greedy scheduling heuristic in the style of the paper's reference [4]
// (Kermia & Sorel, PDCS'07) that produces the initial schedule the
// load-balancing heuristic consumes.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/model"
)

// Unplaced marks a task that has not been assigned yet.
const Unplaced = arch.ProcID(-1)

// Placement is the assignment of a task: its processor and the start time
// of its first instance. Instance k starts at Start + k·Period (strict
// periodicity).
type Placement struct {
	Proc  arch.ProcID
	Start model.Time
}

// Comm is one inter-processor data transfer: producer instance Src feeds
// consumer instance Dst across processors, occupying Medium during
// [Start, Start+C). It materialises the send/receive task pair of the
// paper: the send starts at Start on the producer side and the receive
// completes at Start+C on the consumer side.
type Comm struct {
	Src, Dst model.InstanceID
	Medium   arch.MediumID
	Start    model.Time
	Data     model.Mem
}

// End returns the completion time of the receive side.
func (c Comm) End(a *arch.Architecture) model.Time { return c.Start + a.CommTime }

// Schedule is a full placement of a task set onto an architecture.
// Construct one with NewSchedule and Place (manual placement, used by the
// worked-example reproduction), or with Scheduler.Run. Transfers are a
// view of the placement, not state: Comms derives them on each call.
type Schedule struct {
	TS   *model.TaskSet
	Arch *arch.Architecture

	place []Placement

	// tasksOn caches TasksOn per processor; entries are invalidated by
	// Place.
	tasksOn map[arch.ProcID][]model.TaskID

	// periods lists the task set's distinct periods and ringOf maps
	// each task to its period's index there; both are immutable and
	// shared by clones. rings[p*len(periods)+k] is processor p's
	// occupancy folded modulo periods[k] (ring.go). EarliestStart and
	// FitsAt read the ring of the probed task's period; Place folds every
	// placed task into each ring of its processor.
	periods []model.Time
	ringOf  []int32
	rings   []ring
}

// NewSchedule returns an empty schedule over the given frozen task set and
// architecture.
func NewSchedule(ts *model.TaskSet, a *arch.Architecture) (*Schedule, error) {
	if !ts.Frozen() {
		return nil, fmt.Errorf("sched: task set must be frozen")
	}
	s := &Schedule{
		TS: ts, Arch: a,
		place:   make([]Placement, ts.Len()),
		tasksOn: make(map[arch.ProcID][]model.TaskID, a.Procs),
		ringOf:  make([]int32, ts.Len()),
	}
	for i := range s.place {
		s.place[i] = Placement{Proc: Unplaced}
		period := ts.Task(model.TaskID(i)).Period
		k := slices.Index(s.periods, period)
		if k < 0 {
			k = len(s.periods)
			s.periods = append(s.periods, period)
		}
		s.ringOf[i] = int32(k)
	}
	s.rings = make([]ring, a.Procs*len(s.periods))
	return s, nil
}

// MustNewSchedule is NewSchedule that panics on error.
func MustNewSchedule(ts *model.TaskSet, a *arch.Architecture) *Schedule {
	s, err := NewSchedule(ts, a)
	if err != nil {
		panic(err)
	}
	return s
}

// Place assigns a task. It does not validate; call Validate after all
// placements.
func (s *Schedule) Place(id model.TaskID, p arch.ProcID, start model.Time) error {
	if int(id) < 0 || int(id) >= s.TS.Len() {
		return fmt.Errorf("sched: Place: unknown task %d", id)
	}
	if !s.Arch.Valid(p) {
		return fmt.Errorf("sched: Place %q: unknown processor %d", s.TS.Task(id).Name, p)
	}
	if start < 0 {
		return fmt.Errorf("sched: Place %q: negative start %d", s.TS.Task(id).Name, start)
	}
	prev := s.place[id]
	s.place[id] = Placement{Proc: p, Start: start}
	delete(s.tasksOn, p)
	if prev.Proc != Unplaced {
		delete(s.tasksOn, prev.Proc)
		s.rebuildRings(prev.Proc)
	}
	if prev.Proc != p {
		s.foldInto(p, id, start)
	}
	return nil
}

// reset unplaces every task, keeping every buffer for the next pass (the
// scheduler's repair rounds).
func (s *Schedule) reset() {
	for i := range s.place {
		s.place[i] = Placement{Proc: Unplaced}
	}
	clear(s.tasksOn)
	for k := range s.rings {
		s.rings[k] = s.rings[k][:0]
	}
}

// MustPlace is Place that panics on error.
func (s *Schedule) MustPlace(id model.TaskID, p arch.ProcID, start model.Time) {
	if err := s.Place(id, p, start); err != nil {
		panic(err)
	}
}

// Placement returns the placement of a task.
func (s *Schedule) Placement(id model.TaskID) Placement { return s.place[id] }

// Placed reports whether every task has been assigned.
func (s *Schedule) Placed() bool {
	for _, p := range s.place {
		if p.Proc == Unplaced {
			return false
		}
	}
	return true
}

// TasksOn returns the tasks placed on processor p, sorted by start time
// then ID. The result is cached until the next Place touching p; callers
// must not mutate it.
func (s *Schedule) TasksOn(p arch.ProcID) []model.TaskID {
	if cached, ok := s.tasksOn[p]; ok {
		return cached
	}
	var out []model.TaskID
	for i, pl := range s.place {
		if pl.Proc == p {
			out = append(out, model.TaskID(i))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := s.place[out[i]], s.place[out[j]]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return out[i] < out[j]
	})
	s.tasksOn[p] = out
	return out
}

// InstanceStart returns the start time of instance k of a task.
func (s *Schedule) InstanceStart(id model.TaskID, k int) model.Time {
	return model.InstanceStart(s.place[id].Start, s.TS.Task(id).Period, k)
}

// InstanceEnd returns the completion time of instance k of a task.
func (s *Schedule) InstanceEnd(id model.TaskID, k int) model.Time {
	return s.InstanceStart(id, k) + s.TS.Task(id).WCET
}

// Makespan returns the completion time of the last instance within the
// hyper-period — the paper's "total execution time".
func (s *Schedule) Makespan() model.Time {
	var m model.Time
	for i := 0; i < s.TS.Len(); i++ {
		id := model.TaskID(i)
		if s.place[id].Proc == Unplaced {
			continue
		}
		k := s.TS.Instances(id) - 1
		if e := s.InstanceEnd(id, k); e > m {
			m = e
		}
	}
	return m
}

// MemVector returns the per-processor memory amounts, index =
// processor. Following the paper's accounting (its worked example counts
// 16 units for four instances of a task with m=4), every instance of a
// task contributes the task's memory amount: data produced by distinct
// instances cannot be reused (fig. 1).
func (s *Schedule) MemVector() []model.Mem {
	v := make([]model.Mem, s.Arch.Procs)
	for i, pl := range s.place {
		if pl.Proc != Unplaced {
			id := model.TaskID(i)
			v[pl.Proc] += s.TS.Task(id).Mem * model.Mem(s.TS.Instances(id))
		}
	}
	return v
}

// crosses reports whether dependence d links tasks placed on different
// processors.
func (s *Schedule) crosses(d model.Dependence) bool {
	sp, dp := s.place[d.Src].Proc, s.place[d.Dst].Proc
	return sp != Unplaced && dp != Unplaced && sp != dp
}

// eachCrossDep calls fn, with Start unset, for every dependence whose
// endpoints sit on different processors, expanded to instance
// granularity: dependence by dependence, then by consumer instance.
func (s *Schedule) eachCrossDep(fn func(Comm)) {
	for i := range s.TS.NumDependences() {
		d := s.TS.Dependence(i)
		if !s.crosses(d) {
			continue
		}
		med, err := s.Arch.Route(s.place[d.Src].Proc, s.place[d.Dst].Proc)
		if err != nil {
			continue
		}
		for k := 0; k < s.TS.Instances(d.Dst); k++ {
			dst := model.InstanceID{Task: d.Dst, K: k}
			model.EachInstanceDep(s.TS, d.Dst, k, func(src model.InstanceID) {
				if src.Task == d.Src {
					fn(Comm{Src: src, Dst: dst, Medium: med, Data: d.Data})
				}
			})
		}
	}
}

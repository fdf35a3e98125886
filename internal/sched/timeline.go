package sched

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/model"
)

// timeline.go answers the scheduler's feasibility queries from the
// per-processor occupancy rings (ring.go).
//
// Every processor keeps one ring per distinct period of the task set.
// Place folds the new task into each ring of its processor, so a probe
// for a task of period T reads only the ring of period T: one binary
// search and a forward walk over its gaps. The property tests in
// timeline_test.go check the rings against the pairwise modulo-gcd
// formulation (model.Compatible) and against an image-by-image search
// over the unfolded hyper-period.

// foldInto adds task id, placed at start, to every ring of processor p.
func (s *Schedule) foldInto(p arch.ProcID, id model.TaskID, start model.Time) {
	t := s.TS.Task(id)
	base := int(p) * len(s.periods)
	for k, period := range s.periods {
		s.rings[base+k] = s.rings[base+k].fold(period, start, t.Period, t.WCET)
	}
}

// rebuildRings refolds processor p's rings from the placements (used
// when a placed task is re-placed: folded spans cannot be unfolded).
func (s *Schedule) rebuildRings(p arch.ProcID) {
	base := int(p) * len(s.periods)
	for k := range s.periods {
		s.rings[base+k] = s.rings[base+k][:0]
	}
	for i, pl := range s.place {
		if pl.Proc == p {
			s.foldInto(p, model.TaskID(i), pl.Start)
		}
	}
}

// EarliestStart returns the smallest start time ≥ lower such that every
// instance of task id (strictly periodic at its period) fits on
// processor p without overlapping any instance already placed there — in
// steady state, i.e. including the wrap-around images of the repeating
// hyper-period pattern. It returns an error when no start in
// [lower, lower+H] is feasible (feasibility depends only on the start
// modulo the period, so searching further cannot help), and when id is
// itself already placed on p: the rings hold its occupancy and cannot
// tell it apart from its neighbours'.
func (s *Schedule) EarliestStart(id model.TaskID, p arch.ProcID, lower model.Time) (model.Time, error) {
	t := s.TS.Task(id)
	if s.place[id].Proc == p {
		return 0, fmt.Errorf("sched: EarliestStart: %q is already placed on %s", t.Name, s.Arch.ProcName(p))
	}
	start, ok := s.earliestStartIn(id, p, lower, lower+s.TS.HyperPeriod())
	if !ok {
		return 0, fmt.Errorf("sched: no feasible start for %q on %s above %d", t.Name, s.Arch.ProcName(p), lower)
	}
	return start, nil
}

// earliestStartIn is EarliestStart with an inclusive upper bound on the
// returned start: the search gives up as soon as the candidate exceeds
// min(bound, lower+H). The scheduler uses it to abandon a processor the
// moment it can no longer beat the incumbent best start; failure is a
// boolean, not a formatted error, because abandonment is the common case
// on the hot path.
func (s *Schedule) earliestStartIn(id model.TaskID, p arch.ProcID, lower, bound model.Time) (model.Time, bool) {
	if s.place[id].Proc == p {
		return 0, false
	}
	limit := lower + s.TS.HyperPeriod()
	if bound < limit {
		limit = bound
	}
	if limit < lower {
		return 0, false
	}
	t := s.TS.Task(id)
	r0 := model.Mod(lower, t.Period)
	r := s.rings[int(p)*len(s.periods)+int(s.ringOf[id])]
	x, ok := r.firstFit(t.Period, r0, t.WCET, limit-lower)
	if !ok {
		return 0, false
	}
	return lower + x - r0, true
}

// FitsAt reports whether the task could be placed at (p, start) without
// overlap against the current placement, in steady state. It reports
// false when id is itself already placed on p (see EarliestStart).
func (s *Schedule) FitsAt(id model.TaskID, p arch.ProcID, start model.Time) bool {
	_, ok := s.earliestStartIn(id, p, start, start)
	return ok
}

// DepLowerBounds fills lb (length ≥ Arch.Procs) with the earliest start
// of task id permitted by its producers under the current placement, one
// entry per processor id might run on: each producer instance must
// complete (plus C when the producer is on another processor) before
// the corresponding consumer instance starts. Unplaced producers
// contribute no bound. Strict periodicity makes the maximum over an
// edge's instance pairs a per-edge constant, the producer's first end
// plus the edge's lag (model.EachDepLag), so one visit per task-level
// dependence suffices. The only processor-dependent term is whether the
// +C communication delay applies, so a per-processor maximum of the
// local bounds plus the two best cross-processor bounds (from distinct
// processors) determine every entry.
func (s *Schedule) DepLowerBounds(id model.TaskID, lb []model.Time) {
	for i := range lb {
		lb[i] = 0
	}
	c := s.Arch.CommTime
	var top1, top2 model.Time // best remote bounds from distinct processors
	top1Proc := Unplaced
	model.EachDepLag(s.TS, id, func(src model.TaskID, lag model.Time) {
		pp := s.place[src].Proc
		if pp == Unplaced {
			return
		}
		local := s.InstanceEnd(src, 0) + lag
		if local > lb[pp] {
			lb[pp] = local // producer co-located: no comm delay
		}
		remote := local + c
		switch {
		case remote > top1:
			if top1Proc != pp {
				top2 = top1
			}
			top1, top1Proc = remote, pp
		case remote > top2 && pp != top1Proc:
			top2 = remote
		}
	})
	for p := range lb {
		cross := top1
		if top1Proc == arch.ProcID(p) {
			cross = top2
		}
		if cross > lb[p] {
			lb[p] = cross
		}
	}
}

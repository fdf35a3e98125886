package sched

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/model"
)

// ValidationError describes one constraint violation found by Validate.
type ValidationError struct {
	Kind string // "placement", "overlap", "precedence", "memory", "medium"
	Msg  string
}

func (e ValidationError) Error() string { return "sched: " + e.Kind + ": " + e.Msg }

// Validate checks every constraint of the model on the schedule:
//
//   - every task is placed with a non-negative start time;
//   - strict periodicity is structural (instance k = S + k·T) and needs no
//     check beyond S ≥ 0;
//   - non-overlap, precedence and memory capacity: those of the expanded
//     instance schedule (InstSchedule.Validate);
//   - media, under the contended model only: Comms packs every transfer
//     between its producer's end and its consumer's start, and no two
//     transfers meet on their medium at any image k·H. In the
//     latency-only model a transfer's window is exactly the +C precedence
//     check above, so nothing is derived.
//
// It returns all violations found (nil means valid).
func (s *Schedule) Validate() []ValidationError {
	var errs []ValidationError
	add := func(kind, format string, args ...any) {
		errs = append(errs, ValidationError{Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}

	for i := 0; i < s.TS.Len(); i++ {
		id := model.TaskID(i)
		pl := s.place[id]
		if pl.Proc == Unplaced {
			add("placement", "task %q is not placed", s.TS.Task(id).Name)
		} else if pl.Start < 0 {
			add("placement", "task %q has negative start %d", s.TS.Task(id).Name, pl.Start)
		}
	}
	if len(errs) > 0 {
		return errs
	}
	errs = FromSchedule(s).Validate()

	if s.Arch.ContendedMedia {
		cms, err := s.Comms()
		if err != nil {
			add("medium", "%s", strings.TrimPrefix(err.Error(), "sched: "))
		}
		s.mediaConflicts(cms, func(a, b Comm) {
			add("medium", "transfers %s→%s and %s→%s overlap on %s",
				s.instName(a.Src), s.instName(a.Dst), s.instName(b.Src), s.instName(b.Dst), s.Arch.MediumName(a.Medium))
		})
	}
	return errs
}

// Valid reports whether Validate finds no violation.
func (s *Schedule) Valid() bool { return len(s.Validate()) == 0 }

// occupancy is one window [start, start+dur) of a processor or medium,
// tagged with the caller's index of its owner.
type occupancy struct {
	start, dur model.Time
	id         int
}

// foldConflicts calls fn once for every pair of occupancies that collide
// in the steady state of a pattern repeating every h (model.FoldOverlap),
// smaller id first. It folds the starts modulo h in place, sorts them,
// and walks from each occupancy forward around the ring over the starts
// inside its window: O(n log n) plus one step per conflict. A pair whose
// starts each lie inside the other's window is met from both ends; the
// one that sorts first reports it.
func foldConflicts(h model.Time, occs []occupancy, fn func(a, b int)) {
	for i := range occs {
		occs[i].start = model.Mod(occs[i].start, h)
	}
	slices.SortFunc(occs, func(x, y occupancy) int {
		return cmp.Or(cmp.Compare(x.start, y.start), cmp.Compare(x.id, y.id))
	})
	for i, a := range occs {
		j, off := i, model.Time(0)
		for range len(occs) - 1 {
			if j++; j == len(occs) {
				j, off = 0, h // wrap: the next lap of the ring
			}
			b := occs[j]
			d := b.start + off - a.start
			if d >= a.dur {
				break
			}
			if j < i && h-d < b.dur {
				continue // a's start lies in b's window too, and b sorts first
			}
			fn(min(a.id, b.id), max(a.id, b.id))
		}
	}
}

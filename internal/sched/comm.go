package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/model"
)

// Comms derives the inter-processor transfers implied by the current
// placement, each with a slot on its medium, in earliest-deadline-first
// order. Nothing is stored: every call derives the transfers afresh, so
// they always match the placement.
//
// In the default latency-only model (the paper's: C is the time between
// the start of the send task and the completion of the receive task, with
// no bus contention) every transfer starts as soon as its producer
// completes and must finish by its consumer's start.
//
// With Architecture.ContendedMedia set, transfers on the same medium must
// not overlap in steady state: the pattern repeats every hyper-period H,
// so each medium is a ring of period H (ring.go). Transfers are packed
// in EDF order, each at the earliest slot after its producer completes
// that misses every folded slot already taken. A transfer longer than H
// collides with its own next image. An error is returned if some
// transfer cannot meet its consumer under either model.
func (s *Schedule) Comms() ([]Comm, error) {
	c := s.Arch.CommTime

	// Deterministic EDF processing order: deadline, then ready time, then
	// producer and consumer task. Distinct transfers never tie: equal
	// consumer tasks and deadlines pin the consumer instance, equal
	// producer tasks and ready times pin the producer instance.
	var cms []Comm
	s.eachCrossDep(func(cm Comm) { cms = append(cms, cm) })
	readyOf := func(cm Comm) model.Time { return s.InstanceEnd(cm.Src.Task, cm.Src.K) }
	deadlineOf := func(cm Comm) model.Time { return s.InstanceStart(cm.Dst.Task, cm.Dst.K) }
	slices.SortFunc(cms, func(a, b Comm) int {
		return cmp.Or(cmp.Compare(deadlineOf(a), deadlineOf(b)), cmp.Compare(readyOf(a), readyOf(b)),
			cmp.Compare(a.Src.Task, b.Src.Task), cmp.Compare(a.Dst.Task, b.Dst.Task))
	})

	// busy[m] is medium m's occupancy folded modulo H; a zero-length
	// transfer occupies nothing.
	h := s.TS.HyperPeriod()
	var busy []ring
	if s.Arch.ContendedMedia && c > 0 {
		busy = make([]ring, s.Arch.Media())
	}

	for i := range cms {
		cm := &cms[i]
		ready, deadline := readyOf(*cm), deadlineOf(*cm)
		start, ok := ready, ready+c <= deadline
		if ok && busy != nil {
			if c > h {
				return nil, fmt.Errorf("sched: transfer %s→%s occupies %s for C %d, longer than the hyper-period %d",
					s.instName(cm.Src), s.instName(cm.Dst), s.Arch.MediumName(cm.Medium), c, h)
			}
			r0 := model.Mod(ready, h)
			var x model.Time
			x, ok = busy[cm.Medium].firstFit(h, r0, c, deadline-c-ready)
			start = ready + x - r0
		}
		if !ok {
			return nil, fmt.Errorf("sched: transfer %s→%s cannot complete by consumer start %d (ready %d, C %d, medium %s)",
				s.instName(cm.Src), s.instName(cm.Dst), deadline, ready, c, s.Arch.MediumName(cm.Medium))
		}
		if busy != nil {
			busy[cm.Medium] = busy[cm.Medium].fold(h, start, h, c)
		}
		cm.Start = start
	}
	return cms, nil
}

func (s *Schedule) instName(iid model.InstanceID) string {
	return fmt.Sprintf("%s#%d", s.TS.Task(iid.Task).Name, iid.K+1)
}

// mediaConflicts calls fn once for every pair of transfers in cms that
// share a medium in steady state (foldConflicts with period H).
func (s *Schedule) mediaConflicts(cms []Comm, fn func(a, b Comm)) {
	h := s.TS.HyperPeriod()
	var occs []occupancy
	for m := arch.MediumID(0); int(m) < s.Arch.Media(); m++ {
		occs = occs[:0]
		for i, cm := range cms {
			if cm.Medium == m {
				occs = append(occs, occupancy{cm.Start, s.Arch.CommTime, i})
			}
		}
		foldConflicts(h, occs, func(a, b int) { fn(cms[a], cms[b]) })
	}
}

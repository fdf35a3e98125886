package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/model"
)

// DeriveComms computes the inter-processor communications implied by the
// current placement and assigns each a slot on its medium. It replaces
// any previously derived comms.
//
// In the default latency-only model (the paper's: C is the time between
// the start of the send task and the completion of the receive task, with
// no bus contention) every transfer starts as soon as its producer
// completes and must finish by its consumer's start.
//
// With Architecture.ContendedMedia set, transfers on the same medium must
// not overlap; they are packed in earliest-deadline-first order, each at
// the earliest free slot after its producer completes. An error is
// returned if some transfer cannot meet its consumer under either model.
func (s *Schedule) DeriveComms() error {
	c := s.Arch.CommTime

	// Deterministic EDF processing order: deadline, then ready time, then
	// producer and consumer task. Distinct transfers never tie: equal
	// consumer tasks and deadlines pin the consumer instance, equal
	// producer tasks and ready times pin the producer instance.
	keys := make([]commKey, 0, s.crossDepCount())
	s.eachCrossDep(func(cm Comm) {
		keys = append(keys, commKey{
			deadline: s.InstanceStart(cm.Dst.Task, cm.Dst.K),
			ready:    s.InstanceEnd(cm.Src.Task, cm.Src.K),
			cm:       cm,
		})
	})
	slices.SortFunc(keys, func(a, b commKey) int {
		if a.deadline != b.deadline {
			return cmp.Compare(a.deadline, b.deadline)
		}
		if a.ready != b.ready {
			return cmp.Compare(a.ready, b.ready)
		}
		if a.cm.Src.Task != b.cm.Src.Task {
			return cmp.Compare(a.cm.Src.Task, b.cm.Src.Task)
		}
		return cmp.Compare(a.cm.Dst.Task, b.cm.Dst.Task)
	})

	type slot struct{ start, end model.Time }
	var busy map[arch.MediumID][]slot
	if s.Arch.ContendedMedia {
		busy = make(map[arch.MediumID][]slot)
	}

	s.comms = slices.Grow(s.comms[:0], len(keys))
	for _, k := range keys {
		cm, ready, deadline := k.cm, k.ready, k.deadline
		start := ready
		if s.Arch.ContendedMedia {
			// Shift past conflicting slots on the medium.
			for {
				moved := false
				for _, sl := range busy[cm.Medium] {
					if start < sl.end && sl.start < start+c {
						start = sl.end
						moved = true
					}
				}
				if !moved {
					break
				}
			}
		}
		if start+c > deadline {
			return fmt.Errorf("sched: transfer %s→%s cannot complete by consumer start %d (ready %d, C %d, medium %s)",
				s.instName(cm.Src), s.instName(cm.Dst), deadline, ready, c, s.Arch.MediumName(cm.Medium))
		}
		if s.Arch.ContendedMedia {
			busy[cm.Medium] = append(busy[cm.Medium], slot{start, start + c})
		}
		cm.Start = start
		s.comms = append(s.comms, cm)
	}
	return nil
}

// commKey is a cross dependence with its EDF sort key precomputed.
type commKey struct {
	deadline, ready model.Time
	cm              Comm
}

func (s *Schedule) instName(iid model.InstanceID) string {
	return fmt.Sprintf("%s#%d", s.TS.Task(iid.Task).Name, iid.K+1)
}

// CommLoad returns, per medium, the total busy time of derived transfers.
func (s *Schedule) CommLoad() map[arch.MediumID]model.Time {
	out := make(map[arch.MediumID]model.Time)
	for _, cm := range s.comms {
		out[cm.Medium] += s.Arch.CommTime
	}
	return out
}

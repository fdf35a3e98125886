package sched

import (
	"repro/internal/arch"
	"repro/internal/model"
)

// occupancy.go derives per-processor occupancy/idle-window statistics
// from an instance-level schedule — the contention view of each
// processor's occupancy. The campaign analyzers
// consume it to explain *why* a balanced schedule wins: a gain shows up
// here as fewer, shorter idle windows on the loaded processors.

// ProcOccupancy summarises one processor's linear-time occupancy over a
// window [0, horizon).
type ProcOccupancy struct {
	// Busy is the total occupied time within the window, with
	// overlapping intervals (which a valid schedule never has) merged
	// rather than double-counted.
	Busy model.Time
	// IdleWindows counts the maximal idle gaps within the window,
	// including a leading gap before the first instance and a trailing
	// gap after the last one.
	IdleWindows int
	// MaxIdle is the length of the longest idle window.
	MaxIdle model.Time
}

// Occupancy computes the per-processor occupancy of is over the window
// [0, horizon), index = processor. Instances are read from the cached
// per-processor listings (sorted by start), intervals are clipped to the
// window and merged, and the gaps between merged intervals become the
// idle windows. The result depends only on the placements, never on
// iteration order, so it is safe for byte-identical artifacts.
func Occupancy(is *InstSchedule, horizon model.Time) []ProcOccupancy {
	out := make([]ProcOccupancy, is.Arch.Procs)
	if horizon <= 0 {
		return out
	}
	for p := range out {
		ids := is.InstancesOn(arch.ProcID(p))
		o := &out[p]
		// cursor is the end of occupied time seen so far; a gap opens
		// whenever the next interval starts beyond it.
		var cursor model.Time
		gap := func(from, to model.Time) {
			if to <= from {
				return
			}
			o.IdleWindows++
			if d := to - from; d > o.MaxIdle {
				o.MaxIdle = d
			}
		}
		for _, iid := range ids {
			start := is.startOf(iid)
			if start >= horizon {
				break // listings are sorted by start
			}
			end := is.End(iid)
			if end > horizon {
				end = horizon
			}
			if start > cursor {
				gap(cursor, start)
				cursor = start
			}
			if end > cursor {
				o.Busy += end - cursor
				cursor = end
			}
		}
		gap(cursor, horizon)
	}
	return out
}

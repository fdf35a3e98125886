// Package arch models the homogeneous distributed architecture of the
// paper: M identical processors with identical memory capacity, connected
// by one or more shared communication media. Every pair of processors is
// reachable (possibly over a single bus, as in the paper's figure 2).
package arch

import (
	"fmt"

	"repro/internal/model"
)

// ProcID identifies a processor, 0-based.
type ProcID int

// MediumID identifies a communication medium, 0-based.
type MediumID int

// Architecture is a homogeneous multiprocessor: M identical processors,
// each with MemCapacity local memory, and a set of media. CommTime is the
// time C elapsed between the start of a send task and the completion of
// the matching receive task for one datum (the paper uses a single C for
// its homogeneous media).
type Architecture struct {
	Procs       int
	MemCapacity model.Mem  // per-processor capacity; 0 means unlimited
	CommTime    model.Time // C, per-datum inter-processor transfer time

	// ContendedMedia switches the communication model. The paper treats C
	// as the end-to-end time between the start of a send task and the
	// completion of the matching receive task, and does not model bus
	// contention; that latency-only model is the default. With
	// ContendedMedia set, transfers additionally reserve exclusive slots
	// on their medium, which is the stricter model a shared bus implies.
	// Exclusivity holds in steady state: the schedule repeats every
	// hyper-period H, so no two slots may meet at any image k·H. Slots
	// are packed earliest-deadline-first, a heuristic that can refuse a
	// transfer set some other packing would fit.
	ContendedMedia bool

	media []medium
	route map[[2]ProcID]MediumID
}

type medium struct {
	name  string
	procs []ProcID
}

// New returns an architecture with procs processors, a single shared bus
// connecting all of them, communication time c, and unlimited memory.
// Use SetMemCapacity to bound memory.
func New(procs int, c model.Time) (*Architecture, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("arch: need at least one processor, got %d", procs)
	}
	if c < 0 {
		return nil, fmt.Errorf("arch: negative communication time %d", c)
	}
	a := &Architecture{Procs: procs, CommTime: c, route: make(map[[2]ProcID]MediumID)}
	all := make([]ProcID, procs)
	for i := range all {
		all[i] = ProcID(i)
	}
	a.media = []medium{{name: "Med", procs: all}}
	for i := 0; i < procs; i++ {
		for j := 0; j < procs; j++ {
			if i != j {
				a.route[[2]ProcID{ProcID(i), ProcID(j)}] = 0
			}
		}
	}
	return a, nil
}

// MustNew is New that panics on error.
func MustNew(procs int, c model.Time) *Architecture {
	a, err := New(procs, c)
	if err != nil {
		panic(err)
	}
	return a
}

// SetMemCapacity bounds every processor's memory. Zero means unlimited.
func (a *Architecture) SetMemCapacity(m model.Mem) { a.MemCapacity = m }

// AddMedium declares an extra medium connecting the given processors and
// re-routes every pair it covers onto it (most recently added medium
// wins). It returns the new medium's ID.
func (a *Architecture) AddMedium(name string, procs ...ProcID) (MediumID, error) {
	if len(procs) < 2 {
		return 0, fmt.Errorf("arch: medium %q must connect at least two processors", name)
	}
	for _, p := range procs {
		if int(p) < 0 || int(p) >= a.Procs {
			return 0, fmt.Errorf("arch: medium %q: unknown processor %d", name, p)
		}
	}
	id := MediumID(len(a.media))
	a.media = append(a.media, medium{name: name, procs: append([]ProcID(nil), procs...)})
	for _, p := range procs {
		for _, q := range procs {
			if p != q {
				a.route[[2]ProcID{p, q}] = id
			}
		}
	}
	return id, nil
}

// Media returns the number of media.
func (a *Architecture) Media() int { return len(a.media) }

// MediumName returns a medium's name.
func (a *Architecture) MediumName(id MediumID) string { return a.media[id].name }

// Route returns the medium carrying traffic from src to dst. src and dst
// must be distinct, valid processors.
func (a *Architecture) Route(src, dst ProcID) (MediumID, error) {
	m, ok := a.route[[2]ProcID{src, dst}]
	if !ok {
		return 0, fmt.Errorf("arch: no route from P%d to P%d", src+1, dst+1)
	}
	return m, nil
}

// ProcName renders the 1-based processor name used in the paper ("P1").
func (a *Architecture) ProcName(p ProcID) string { return fmt.Sprintf("P%d", int(p)+1) }

// Valid reports whether p names a processor of this architecture.
func (a *Architecture) Valid(p ProcID) bool { return int(p) >= 0 && int(p) < a.Procs }

package sched

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
)

// TestOccupancyHandBuilt pins the window accounting on a tiny schedule
// whose busy/idle structure is known by construction.
func TestOccupancyHandBuilt(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("A", 10, 2, 1) // one instance: [1,3)
	b := ts.MustAddTask("B", 10, 3, 1) // one instance: [5,8)
	c := ts.MustAddTask("C", 10, 1, 1) // other proc: [0,1)
	ts.MustFreeze()
	ar := arch.MustNew(2, 1)

	is := placed(ts, ar, nil,
		placing{model.InstanceID{Task: a}, 0, 1},
		placing{model.InstanceID{Task: b}, 0, 5},
		placing{model.InstanceID{Task: c}, 1, 0})

	occ := Occupancy(is, 10)
	if len(occ) != 2 {
		t.Fatalf("procs: %d", len(occ))
	}
	// P0: busy [1,3)+[5,8) = 5; idle windows [0,1), [3,5), [8,10); max 2.
	if occ[0].Busy != 5 || occ[0].IdleWindows != 3 || occ[0].MaxIdle != 2 {
		t.Fatalf("P0: %+v, want busy=5 windows=3 maxIdle=2", occ[0])
	}
	// P1: busy [0,1) = 1; one trailing idle window of 9.
	if occ[1].Busy != 1 || occ[1].IdleWindows != 1 || occ[1].MaxIdle != 9 {
		t.Fatalf("P1: %+v, want busy=1 windows=1 maxIdle=9", occ[1])
	}

	// Clipping: a horizon inside B's execution truncates the busy time
	// and drops the trailing gap.
	occ = Occupancy(is, 6)
	if occ[0].Busy != 3 || occ[0].IdleWindows != 2 || occ[0].MaxIdle != 2 {
		t.Fatalf("P0 clipped: %+v, want busy=3 windows=2 maxIdle=2", occ[0])
	}

	// Degenerate horizon: all zeros.
	for _, o := range Occupancy(is, 0) {
		if o.Busy != 0 || o.IdleWindows != 0 || o.MaxIdle != 0 {
			t.Fatalf("zero horizon: %+v", o)
		}
	}
}

// TestOccupancyConsistentOnGenerated cross-checks the invariants on a
// generated schedule: per-processor busy never exceeds the horizon, and
// busy plus the idle windows' extent account for the whole window.
func TestOccupancyConsistentOnGenerated(t *testing.T) {
	ts, err := gen.Generate(gen.Config{Seed: 5, Tasks: 15, Utilization: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.MustNew(3, 1)
	s, err := NewScheduler(ts, ar).Run()
	if err != nil {
		t.Fatal(err)
	}
	is := FromSchedule(s)
	horizon := is.Makespan()
	for p, o := range Occupancy(is, horizon) {
		if o.Busy < 0 || o.Busy > horizon {
			t.Fatalf("P%d: busy %d outside [0,%d]", p, o.Busy, horizon)
		}
		if o.Busy == horizon && o.IdleWindows != 0 {
			t.Fatalf("P%d: fully busy but %d idle windows", p, o.IdleWindows)
		}
		if o.Busy < horizon && o.IdleWindows == 0 {
			t.Fatalf("P%d: idle time %d but no idle window", p, horizon-o.Busy)
		}
		if o.MaxIdle > horizon-o.Busy {
			t.Fatalf("P%d: max idle %d exceeds total idle %d", p, o.MaxIdle, horizon-o.Busy)
		}
	}
}

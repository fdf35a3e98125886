package sched

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
)

// alloc_test.go pins the hot paths at zero (or tightly bounded)
// allocations per call, so the dense-slice representation cannot
// silently regress back to per-query garbage.

func allocFixture(t testing.TB) (*model.TaskSet, *arch.Architecture, *Schedule) {
	t.Helper()
	ts, err := gen.Generate(gen.Config{Seed: 7, Tasks: 40, Utilization: 3})
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.MustNew(4, 1)
	s, err := NewScheduler(ts, ar).Run()
	if err != nil {
		t.Fatal(err)
	}
	return ts, ar, s
}

func TestInstancesOnAllocFree(t *testing.T) {
	_, ar, s := allocFixture(t)
	is := FromSchedule(s)
	allocs := testing.AllocsPerRun(100, func() {
		for p := arch.ProcID(0); int(p) < ar.Procs; p++ {
			if got := is.InstancesOn(p); len(got) == 0 && int(p) == 0 {
				t.Fatal("processor 0 unexpectedly empty")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("InstancesOn allocates %.1f objects per sweep, want 0", allocs)
	}
}

func TestEarliestStartAllocFree(t *testing.T) {
	ts, ar, s := allocFixture(t)
	// Re-probe every task on every processor against the complete
	// placement: both the hit and the bounded-miss path must stay clean.
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < ts.Len(); i++ {
			id := model.TaskID(i)
			for p := arch.ProcID(0); int(p) < ar.Procs; p++ {
				s.earliestStartIn(id, p, 0, ts.HyperPeriod())
				s.FitsAt(id, p, 0)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("EarliestStart/FitsAt allocate %.1f objects per sweep, want 0", allocs)
	}
}

func TestDepLowerBoundsAllocFree(t *testing.T) {
	ts, ar, s := allocFixture(t)
	lbs := make([]model.Time, ar.Procs)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < ts.Len(); i++ {
			s.DepLowerBounds(model.TaskID(i), lbs)
		}
	})
	if allocs != 0 {
		t.Fatalf("DepLowerBounds allocates %.1f objects per sweep, want 0", allocs)
	}
}

// TestNewInstScheduleBounded pins the listings' construction to the
// structural allocations — the schedule, the listing headers, the
// per-processor counts and one backing array for every listing — with
// none per instance or per processor.
func TestNewInstScheduleBounded(t *testing.T) {
	ts, ar, s := allocFixture(t)
	pl := FromSchedule(s).pl
	if allocs := testing.AllocsPerRun(50, func() { NewInstSchedule(ts, ar, pl) }); allocs > 4 {
		t.Fatalf("NewInstSchedule allocates %.1f objects, want ≤ 4", allocs)
	}
}

package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
)

// TestExhaustiveNeverWorseThanGreedy: by construction the exhaustive
// search optimises over a superset of the greedy's decisions, so its
// best must be at least as good on the chosen objective.
func TestExhaustiveNeverWorseThanGreedy(t *testing.T) {
	s := paperInitial(t)
	is := sched.FromSchedule(s)
	b := &Balancer{}
	greedy, err := b.Run(is)
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{ObjectiveMakespan, ObjectiveMaxMem} {
		best, leaves, err := b.ExhaustiveBest(is, obj)
		if err != nil {
			t.Fatalf("objective %v: %v", obj, err)
		}
		if leaves == 0 {
			t.Fatalf("objective %v: no complete scripts", obj)
		}
		switch obj {
		case ObjectiveMakespan:
			if best.MakespanAfter > greedy.MakespanAfter {
				t.Errorf("exhaustive makespan %d worse than greedy %d", best.MakespanAfter, greedy.MakespanAfter)
			}
		case ObjectiveMaxMem:
			if metrics.MaxMem(best.MemAfter) > metrics.MaxMem(greedy.MemAfter) {
				t.Errorf("exhaustive max-mem %d worse than greedy %d", metrics.MaxMem(best.MemAfter), metrics.MaxMem(greedy.MemAfter))
			}
		}
		if errs := best.Schedule.Validate(); len(errs) > 0 {
			t.Errorf("objective %v: best schedule invalid: %v", obj, errs[0])
		}
	}
}

// TestExhaustiveOnPaperExample: the worked example's greedy outcome
// (makespan 14) is in fact sequentially optimal — no placement script
// beats it.
func TestExhaustiveOnPaperExample(t *testing.T) {
	s := paperInitial(t)
	is := sched.FromSchedule(s)
	best, leaves, err := (&Balancer{}).ExhaustiveBest(is, ObjectiveMakespan)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d complete scripts", leaves)
	if best.MakespanAfter != 14 {
		t.Errorf("optimal sequential makespan = %d; greedy already achieves 14", best.MakespanAfter)
	}
}

// TestExhaustiveRejectsLargeInputs guards the exponential blow-up.
func TestExhaustiveRejectsLargeInputs(t *testing.T) {
	// The limit is in blocks; a system of independent tasks yields one
	// block per instance.
	ts := model.NewTaskSet()
	for i := 0; i < ExhaustiveLimit+2; i++ {
		ts.MustAddTask(taskName(i), 100, 1, 1)
	}
	ts.MustFreeze()
	sc, err := sched.NewScheduler(ts, arch.MustNew(3, 1)).Run()
	if err != nil {
		t.Skip(err)
	}
	if _, _, err := (&Balancer{}).ExhaustiveBest(sched.FromSchedule(sc), ObjectiveMakespan); err == nil {
		t.Fatal("oversized input accepted")
	}
}

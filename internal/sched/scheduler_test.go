package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
)

func TestSchedulerProducesValidSchedule(t *testing.T) {
	ts, _ := chainSystem(t)
	ar := arch.MustNew(3, 1)
	s, err := NewScheduler(ts, ar).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errs := s.Validate(); len(errs) > 0 {
		t.Fatalf("invalid schedule: %v", errs)
	}
	if !s.Placed() {
		t.Fatal("not all tasks placed")
	}
}

func TestSchedulerSingleProcessorSerialises(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 10, 3, 1)
	b := ts.MustAddTask("b", 10, 4, 1)
	ts.MustFreeze()
	s, err := NewScheduler(ts, arch.MustNew(1, 0)).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ia := s.Placement(a)
	ib := s.Placement(b)
	if ia.Proc != 0 || ib.Proc != 0 {
		t.Fatal("tasks not on the single processor")
	}
	// One must follow the other.
	if !(ia.Start+3 <= ib.Start || ib.Start+4 <= ia.Start) {
		t.Errorf("overlapping single-processor schedule: a@%d b@%d", ia.Start, ib.Start)
	}
}

func TestSchedulerRespectsMemoryCapacity(t *testing.T) {
	ts := model.NewTaskSet()
	ts.MustAddTask("a", 10, 1, 6)
	ts.MustAddTask("b", 10, 1, 6)
	ts.MustFreeze()
	ar := arch.MustNew(2, 1)
	ar.SetMemCapacity(8) // each processor can hold only one of the two
	s, err := NewScheduler(ts, ar).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for p, m := range s.MemVector() {
		if m > 8 {
			t.Errorf("P%d over capacity: %d", p+1, m)
		}
	}
}

func TestSchedulerFailsWhenMemoryImpossible(t *testing.T) {
	ts := model.NewTaskSet()
	ts.MustAddTask("a", 10, 1, 20)
	ts.MustFreeze()
	ar := arch.MustNew(2, 1)
	ar.SetMemCapacity(8)
	if _, err := NewScheduler(ts, ar).Run(); err == nil {
		t.Fatal("impossible memory demand scheduled")
	}
}

func TestSchedulerFailsWhenOverloaded(t *testing.T) {
	// Three tasks, each filling its whole period, one processor.
	ts := model.NewTaskSet()
	ts.MustAddTask("a", 4, 4, 1)
	ts.MustAddTask("b", 4, 4, 1)
	ts.MustFreeze()
	if _, err := NewScheduler(ts, arch.MustNew(1, 0)).Run(); err == nil {
		t.Fatal("overloaded processor scheduled")
	}
}

func TestSchedulerCoLocatesHarmonicChains(t *testing.T) {
	// A tight producer-consumer pair at the same period should land on the
	// same processor (the co-location property §4 relies on).
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 10, 2, 1)
	b := ts.MustAddTask("b", 10, 2, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	s, err := NewScheduler(ts, arch.MustNew(4, 5)).Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Placement(a).Proc != s.Placement(b).Proc {
		t.Errorf("dependent same-period tasks split: a on P%d, b on P%d",
			s.Placement(a).Proc+1, s.Placement(b).Proc+1)
	}
}

func TestSchedulerOnRandomSystems(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ts := gen.MustGenerate(gen.Config{Seed: seed, Tasks: 40, Utilization: 3})
		ar := arch.MustNew(6, 1)
		s, err := NewScheduler(ts, ar).Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if errs := s.Validate(); len(errs) > 0 {
			t.Fatalf("seed %d: invalid schedule: %v", seed, errs[0])
		}
	}
}

func TestEarliestStartSkipsOccupiedSlots(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 6, 2, 1)
	b := ts.MustAddTask("b", 6, 2, 1)
	ts.MustFreeze()
	s := MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(a, 0, 0) // occupies [0,2) every 6
	got, err := s.EarliestStart(b, 0, 0)
	if err != nil {
		t.Fatalf("EarliestStart: %v", err)
	}
	if got != 2 {
		t.Errorf("earliest start = %d, want 2", got)
	}
}

func TestEarliestStartInfeasible(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 4, 4, 1)
	b := ts.MustAddTask("b", 4, 1, 1)
	ts.MustFreeze()
	s := MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(a, 0, 0) // saturates the processor
	if _, err := s.EarliestStart(b, 0, 0); err == nil {
		t.Fatal("start found on a saturated processor")
	}
}

func TestDepLowerBound(t *testing.T) {
	ts, ids := chainSystem(t)
	ar := arch.MustNew(2, 1)
	s := MustNewSchedule(ts, ar)
	s.MustPlace(ids[0], 0, 0) // a ends at 1 and 4

	// b on P1 (same proc): bound is a#2 end = 4. On P2: 4 + C = 5.
	lbs := make([]model.Time, ar.Procs)
	s.DepLowerBounds(ids[1], lbs)
	if lbs[0] != 4 {
		t.Errorf("same-proc lower bound = %d, want 4", lbs[0])
	}
	if lbs[1] != 5 {
		t.Errorf("cross-proc lower bound = %d, want 5", lbs[1])
	}
}

// refOrder is the placement order's former linear-scan extraction: the
// ready set is unordered and each round takes its minimum.
func refOrder(sc *Scheduler, boost []int) []model.TaskID {
	n := sc.TS.Len()
	indeg := make([]int, n)
	for _, d := range sc.TS.Dependences() {
		indeg[d.Dst]++
	}
	var ready []model.TaskID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, model.TaskID(i))
		}
	}
	key := sc.newPass().ready
	key.boost = boost
	var out []model.TaskID
	for len(ready) > 0 {
		mi := 0
		for i := 1; i < len(ready); i++ {
			if key.less(ready[i], ready[mi]) {
				mi = i
			}
		}
		id := ready[mi]
		ready[mi] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out = append(out, id)
		for _, s := range sc.TS.Successors(id) {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return out
}

// TestOrderMatchesLinearScan checks the heap-ordered ready set against
// the linear scan it replaced, with and without repair boosts (boosts
// create many ties on the boost count, so the later keys decide).
func TestOrderMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ts := gen.MustGenerate(gen.Config{Seed: seed, Tasks: 10 + int(seed)*15, Utilization: 3})
		sc := NewScheduler(ts, arch.MustNew(4, 1))
		ps := sc.newPass()
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			if round > 0 {
				for i := range ps.ready.boost {
					ps.ready.boost[i] = rng.Intn(3)
				}
			}
			want := refOrder(sc, ps.ready.boost)
			if got := sc.order(ps); !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: heap order %v, linear scan %v", seed, round, got, want)
			}
		}
	}
}

// TestRepairRoundsMatchFreshSchedules checks that a Run whose repair
// rounds reset and reuse one schedule ends exactly where rounds on
// fresh schedules end: the same placements, or the same error.
func TestRepairRoundsMatchFreshSchedules(t *testing.T) {
	var repaired, failed int
	for seed := int64(0); seed < 30; seed++ {
		ts := gen.MustGenerate(gen.Config{Seed: seed, Tasks: 40, Utilization: 4.5})
		ar := arch.MustNew(5, 1)
		sc := NewScheduler(ts, ar)

		var want *Schedule
		var wantErr error
		rounds := 0
		ps := sc.newPass()
		for attempt := 0; attempt <= retries; attempt++ {
			rounds++
			s := MustNewSchedule(ts, ar)
			id, err := sc.runOnce(s, ps)
			if err == nil {
				want, wantErr = s, nil
				break
			}
			wantErr = err
			for _, a := range sc.ancestry(id) {
				ps.ready.boost[a]++
			}
		}
		if rounds > 1 && wantErr == nil {
			repaired++ // placed after at least one reset
		}

		got, err := sc.Run()
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("seed %d: Run error %v, fresh-schedule rounds %v", seed, err, wantErr)
		}
		if err != nil {
			failed++
			continue
		}
		if !slices.Equal(got.place, want.place) {
			t.Fatalf("seed %d: Run placements differ from fresh-schedule rounds", seed)
		}
		checkRingsFresh(t, fmt.Sprintf("seed %d", seed), got)
	}
	if repaired == 0 || failed == 0 {
		t.Fatalf("coverage: %d seeds placed after a repair, %d failed every round", repaired, failed)
	}
}

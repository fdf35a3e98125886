package sched

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
)

// placing is one instance placement of a hand-built schedule.
type placing struct {
	iid   model.InstanceID
	proc  arch.ProcID
	start model.Time
}

// placed builds the schedule over ts and a that holds base's placements
// (none when base is nil) with each of places applied on top.
func placed(ts *model.TaskSet, a *arch.Architecture, base *InstSchedule, places ...placing) *InstSchedule {
	pl := NewPlacements(ts)
	if base != nil {
		copy(pl, base.pl)
	}
	for _, p := range places {
		pl[ts.InstanceIndex(p.iid)] = InstPlacement{Proc: p.proc, Start: p.start}
	}
	return NewInstSchedule(ts, a, pl)
}

func expandedChain(t *testing.T) (*InstSchedule, [3]model.TaskID) {
	t.Helper()
	ts, ids := chainSystem(t)
	ar := arch.MustNew(2, 1)
	s := MustNewSchedule(ts, ar)
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 1, 5)
	s.MustPlace(ids[2], 1, 6)
	return FromSchedule(s), ids
}

func TestFromScheduleExpandsAllInstances(t *testing.T) {
	is, ids := expandedChain(t)
	if got := is.Makespan(); got != 7 {
		t.Errorf("makespan = %d, want 7", got)
	}
	// a has two instances at 0 and 3 on P1.
	for k, want := range []model.Time{0, 3} {
		pl, ok := is.Placement(model.InstanceID{Task: ids[0], K: k})
		if !ok || pl.Proc != 0 || pl.Start != want {
			t.Errorf("a#%d placement = %+v ok=%v, want P1 @%d", k+1, pl, ok, want)
		}
	}
	if errs := is.Validate(); len(errs) > 0 {
		t.Fatalf("expanded schedule invalid: %v", errs)
	}
}

func TestInstValidateCatchesPeriodicityViolation(t *testing.T) {
	is, ids := expandedChain(t)
	// Move a#2 off its strict slot.
	is = placed(is.TS, is.Arch, is, placing{model.InstanceID{Task: ids[0], K: 1}, 0, 4})
	if !hasKind(is.Validate(), "periodicity") {
		t.Error("periodicity violation not reported")
	}
}

func TestInstValidateCatchesMissingInstance(t *testing.T) {
	ts, ids := chainSystem(t)
	is := placed(ts, arch.MustNew(2, 1), nil, placing{model.InstanceID{Task: ids[0], K: 0}, 0, 0})
	if !hasKind(is.Validate(), "placement") {
		t.Error("missing instances not reported")
	}
}

func TestInstValidateCatchesCrossProcPrecedence(t *testing.T) {
	is, ids := expandedChain(t)
	// b currently at 5 on P2 (a#2 ends 4, +C = 5: tight). Move b to start 4
	// on P2: violates.
	is = placed(is.TS, is.Arch, is, placing{model.InstanceID{Task: ids[1], K: 0}, 1, 4})
	errs := is.Validate()
	if !hasKind(errs, "precedence") {
		t.Errorf("cross-processor precedence violation not reported: %v", errs)
	}
}

func TestInstValidateCoLocationRemovesCommDelay(t *testing.T) {
	ts, ids := chainSystem(t)
	// All on P1, b directly after a#2 with no C.
	is := placed(ts, arch.MustNew(2, 1), nil,
		placing{model.InstanceID{Task: ids[0], K: 0}, 0, 0},
		placing{model.InstanceID{Task: ids[0], K: 1}, 0, 3},
		placing{model.InstanceID{Task: ids[1], K: 0}, 0, 4},
		placing{model.InstanceID{Task: ids[2], K: 0}, 0, 5})
	if errs := is.Validate(); len(errs) > 0 {
		t.Fatalf("co-located schedule should need no comm delay: %v", errs)
	}
}

func TestInstMemVectorPerInstance(t *testing.T) {
	is, _ := expandedChain(t)
	v := is.MemVector()
	if v[0] != 8 || v[1] != 2 {
		t.Errorf("mem vector = %v, want [8 2]", v)
	}
}

func TestInstancesOnSorted(t *testing.T) {
	is, _ := expandedChain(t)
	insts := is.InstancesOn(0)
	for i := 1; i < len(insts); i++ {
		a, _ := is.Placement(insts[i-1])
		b, _ := is.Placement(insts[i])
		if a.Start > b.Start {
			t.Fatalf("InstancesOn not sorted: %v", insts)
		}
	}
}

func TestInstValidateMemoryCapacity(t *testing.T) {
	ts, ids := chainSystem(t)
	ar := arch.MustNew(2, 1)
	ar.SetMemCapacity(7)
	is := placed(ts, ar, nil,
		placing{model.InstanceID{Task: ids[0], K: 0}, 0, 0},
		placing{model.InstanceID{Task: ids[0], K: 1}, 0, 3},
		placing{model.InstanceID{Task: ids[1], K: 0}, 1, 5},
		placing{model.InstanceID{Task: ids[2], K: 0}, 1, 6})
	if !hasKind(is.Validate(), "memory") {
		t.Error("instance-level memory overflow not reported (P1 holds 8 > 7)")
	}
}

package sched

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
)

// chainSystem builds a→b→c at periods (3, 6, 6) with unit WCETs.
func chainSystem(t testing.TB) (*model.TaskSet, [3]model.TaskID) {
	t.Helper()
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 4)
	b := ts.MustAddTask("b", 6, 1, 1)
	c := ts.MustAddTask("c", 6, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustAddDependence(b, c, 1)
	ts.MustFreeze()
	return ts, [3]model.TaskID{a, b, c}
}

func TestPlaceValidation(t *testing.T) {
	ts, ids := chainSystem(t)
	s := MustNewSchedule(ts, arch.MustNew(2, 1))
	if err := s.Place(model.TaskID(99), 0, 0); err == nil {
		t.Error("unknown task accepted")
	}
	if err := s.Place(ids[0], arch.ProcID(9), 0); err == nil {
		t.Error("unknown processor accepted")
	}
	if err := s.Place(ids[0], 0, -1); err == nil {
		t.Error("negative start accepted")
	}
	if err := s.Place(ids[0], 0, 0); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
}

func TestNewScheduleRequiresFrozen(t *testing.T) {
	ts := model.NewTaskSet()
	ts.MustAddTask("a", 3, 1, 1)
	if _, err := NewSchedule(ts, arch.MustNew(1, 0)); err == nil {
		t.Fatal("unfrozen task set accepted")
	}
}

func TestMakespanAndMemVector(t *testing.T) {
	ts, ids := chainSystem(t)
	ar := arch.MustNew(2, 1)
	s := MustNewSchedule(ts, ar)
	s.MustPlace(ids[0], 0, 0) // a: instances at 0,3; ends 1,4
	s.MustPlace(ids[1], 1, 5) // b: one instance (hyper-period 6), ends 6
	s.MustPlace(ids[2], 1, 6) // c: one instance, ends 7

	if m := s.Makespan(); m != 7 {
		t.Errorf("makespan = %d, want 7", m)
	}
	// Per-instance accounting: P1 = 2 instances × 4; P2 = 1 + 1.
	v := s.MemVector()
	if v[0] != 8 || v[1] != 2 {
		t.Errorf("mem vector = %v, want [8 2]", v)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	ts, ids := chainSystem(t)
	s := MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 0, 0) // overlaps a#1
	s.MustPlace(ids[2], 0, 1)
	errs := s.Validate()
	if !hasKind(errs, "overlap") {
		t.Errorf("overlap not reported: %v", errs)
	}
}

func TestValidateCatchesPrecedence(t *testing.T) {
	ts, ids := chainSystem(t)
	ar := arch.MustNew(2, 1)
	s := MustNewSchedule(ts, ar)
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 1, 4) // needs a#2 end (4) + C (1) = 5 > 4
	s.MustPlace(ids[2], 1, 6)
	if !hasKind(s.Validate(), "precedence") {
		t.Error("precedence violation not reported")
	}
}

func TestValidateCatchesUnplaced(t *testing.T) {
	ts, _ := chainSystem(t)
	s := MustNewSchedule(ts, arch.MustNew(1, 0))
	if !hasKind(s.Validate(), "placement") {
		t.Error("unplaced tasks not reported")
	}
	if s.Placed() {
		t.Error("Placed() true with no placements")
	}
}

func TestValidateCatchesMemoryOverflow(t *testing.T) {
	ts, ids := chainSystem(t)
	ar := arch.MustNew(2, 1)
	ar.SetMemCapacity(7) // P1 will hold 2×4 = 8 > 7
	s := MustNewSchedule(ts, ar)
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 1, 5)
	s.MustPlace(ids[2], 1, 6)
	if !hasKind(s.Validate(), "memory") {
		t.Error("memory overflow not reported")
	}
}

func TestValidateWrapAroundOverlap(t *testing.T) {
	// Two tasks, period 6, on one processor. First at 5 (runs [5,7) which
	// wraps into the next hyper-period image of the second at [6,8)... the
	// repeating pattern collides even though the direct intervals do not.
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 6, 2, 1)
	b := ts.MustAddTask("b", 6, 2, 1)
	ts.MustFreeze()
	s := MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(a, 0, 5) // [5,7); next image [11,13)
	s.MustPlace(b, 0, 0) // [0,2); next image [6,8) overlaps [5,7)
	if !hasKind(s.Validate(), "overlap") {
		t.Error("wrap-around overlap not detected")
	}
}

func TestCommsCreatesExpectedTransfers(t *testing.T) {
	ts, ids := chainSystem(t)
	ar := arch.MustNew(2, 1)
	s := MustNewSchedule(ts, ar)
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 1, 5)
	s.MustPlace(ids[2], 1, 6)
	cms, err := s.Comms()
	if err != nil {
		t.Fatalf("Comms: %v", err)
	}
	// a→b crosses: b#1 needs a#1 and a#2: 2 transfers. b→c stays on P2.
	if n := len(cms); n != 2 {
		t.Fatalf("%d transfers, want 2", n)
	}
	for _, c := range cms {
		if c.Src.Task != ids[0] || c.Dst.Task != ids[1] {
			t.Errorf("unexpected transfer %v→%v", c.Src, c.Dst)
		}
		if c.Start < s.InstanceEnd(c.Src.Task, c.Src.K) {
			t.Errorf("transfer starts before producer ends")
		}
		if c.End(ar) > s.InstanceStart(c.Dst.Task, c.Dst.K) {
			t.Errorf("transfer ends after consumer starts")
		}
	}
}

func TestCommsFailsWhenTooTight(t *testing.T) {
	ts, ids := chainSystem(t)
	ar := arch.MustNew(2, 3) // C=3: a#2 ends at 4, b#1 at 5 cannot receive in time
	s := MustNewSchedule(ts, ar)
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 1, 5)
	s.MustPlace(ids[2], 1, 8)
	_, err := s.Comms()
	if err == nil || !strings.Contains(err.Error(), "cannot complete") {
		t.Fatalf("expected transfer failure, got %v", err)
	}
}

func TestTasksOnOrdering(t *testing.T) {
	ts, ids := chainSystem(t)
	s := MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(ids[2], 0, 7)
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 0, 5)
	got := s.TasksOn(0)
	want := []model.TaskID{ids[0], ids[1], ids[2]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TasksOn order = %v, want %v", got, want)
		}
	}
}

func hasKind(errs []ValidationError, kind string) bool {
	for _, e := range errs {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

package sched

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
)

// spacedPair builds a cross-processor producer/consumer pair with `slack`
// free time units between the producer end (+C) and the consumer start.
func spacedPair(t *testing.T, c, slack model.Time) *Schedule {
	t.Helper()
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 20, 2, 1)
	b := ts.MustAddTask("b", 20, 2, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	ar := arch.MustNew(2, c)
	s := MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 2+c+slack)
	return s
}

func TestMaterializeZeroOverhead(t *testing.T) {
	s := spacedPair(t, 3, 0)
	cts, err := MaterializeCommTasks(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One transfer → one send + one receive.
	if len(cts) != 2 {
		t.Fatalf("got %d comm tasks, want 2", len(cts))
	}
	if cts[0].Kind != SendTask || cts[0].Proc != 0 || cts[0].Start != 2 {
		t.Errorf("send task = %+v, want send on P1 at 2", cts[0])
	}
	if cts[1].Kind != RecvTask || cts[1].Proc != 1 || cts[1].Start != 5 {
		t.Errorf("recv task = %+v, want recv on P2 at 5 (consumer start)", cts[1])
	}
}

func TestMaterializeWithOverheadFits(t *testing.T) {
	s := spacedPair(t, 3, 0)
	cts, err := MaterializeCommTasks(s, 1)
	if err != nil {
		t.Fatalf("overhead 1 should fit inside C=3: %v", err)
	}
	for _, ct := range cts {
		if ct.Dur != 1 {
			t.Errorf("comm task duration = %d, want 1", ct.Dur)
		}
	}
	// Receive completes exactly at the consumer start.
	if cts[1].End() != 5 {
		t.Errorf("recv ends at %d, want 5", cts[1].End())
	}
}

func TestMaterializeDetectsInstanceCollision(t *testing.T) {
	// Producer's processor also runs a back-to-back second task exactly
	// where the send task would go.
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 20, 2, 1)
	x := ts.MustAddTask("x", 20, 2, 1)
	b := ts.MustAddTask("b", 20, 2, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	ar := arch.MustNew(2, 2)
	s := MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0)
	s.MustPlace(x, 0, 2) // occupies [2,4): exactly the send slot
	s.MustPlace(b, 1, 4)
	_, err := MaterializeCommTasks(s, 1)
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("send/instance collision not detected: %v", err)
	}
}

func TestMaterializeRejectsBadOverhead(t *testing.T) {
	s := spacedPair(t, 2, 0)
	if _, err := MaterializeCommTasks(s, -1); err == nil {
		t.Error("negative overhead accepted")
	}
	if _, err := MaterializeCommTasks(s, 3); err == nil {
		t.Error("overhead above C accepted")
	}
}

func TestCommOverheadVector(t *testing.T) {
	s := spacedPair(t, 3, 0)
	cts, err := MaterializeCommTasks(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := CommOverheadVector(2, cts)
	if v[0] != 1 || v[1] != 1 {
		t.Errorf("overhead vector = %v, want [1 1]", v)
	}
}

func TestMaterializeOnPaperExample(t *testing.T) {
	// The worked example's schedule has exactly six transfers; with zero
	// overhead all 12 comm tasks materialise.
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 4)
	b := ts.MustAddTask("b", 6, 1, 1)
	c := ts.MustAddTask("c", 6, 1, 1)
	d := ts.MustAddTask("d", 12, 1, 2)
	e := ts.MustAddTask("e", 12, 1, 2)
	ts.MustAddDependence(a, b, 1)
	ts.MustAddDependence(b, c, 1)
	ts.MustAddDependence(b, d, 1)
	ts.MustAddDependence(d, e, 1)
	ts.MustFreeze()
	ar := arch.MustNew(3, 1)
	s := MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 5)
	s.MustPlace(c, 1, 6)
	s.MustPlace(d, 2, 13)
	s.MustPlace(e, 2, 14)
	cts, err := MaterializeCommTasks(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != 12 {
		t.Fatalf("got %d comm tasks, want 12 (6 transfers × send+recv)", len(cts))
	}
	sends, recvs := 0, 0
	for _, ct := range cts {
		switch ct.Kind {
		case SendTask:
			sends++
		case RecvTask:
			recvs++
		}
	}
	if sends != 6 || recvs != 6 {
		t.Errorf("sends=%d recvs=%d, want 6 and 6", sends, recvs)
	}
}

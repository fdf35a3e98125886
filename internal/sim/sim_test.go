package sim

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/sched"
)

// fig1Schedule builds the paper's figure 1 scenario: producer a (period
// T=3) on P1, consumer b (period n·3) on P2, b depends on a, C=1. The
// consumer needs all n data of the hyper-period before it runs; none of
// the n buffers can be reused among themselves.
func fig1Schedule(t *testing.T, n model.Time) *sched.InstSchedule {
	t.Helper()
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 1)
	b := ts.MustAddTask("b", 3*n, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	ar := arch.MustNew(2, 1)
	s := sched.MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0)
	// b must wait for the last instance of a: ends at 3(n−1)+1, +C.
	s.MustPlace(b, 1, 3*(n-1)+2)
	if errs := s.Validate(); len(errs) > 0 {
		t.Fatalf("fig1 schedule invalid: %v", errs)
	}
	return sched.FromSchedule(s)
}

func TestFig1BufferGrowsLinearly(t *testing.T) {
	for n := model.Time(1); n <= 8; n++ {
		is := fig1Schedule(t, n)
		if _, err := (&Runner{}).Run(is); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// All n data must be resident on P2 simultaneously right before b
		// executes: the peak is exactly n (figure 1's point).
		peaks := BufferPeaks(is)
		if got := peaks[1]; got != model.Mem(n) {
			t.Errorf("n=%d: consumer buffer peak = %d, want %d", n, got, n)
		}
		if peaks[0] != 0 {
			t.Errorf("n=%d: producer side should need no receive buffer", n)
		}
	}
}

func TestBufferScalesWithDataSize(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 1)
	b := ts.MustAddTask("b", 12, 1, 1)
	ts.MustAddDependence(a, b, 5) // each datum is 5 units
	ts.MustFreeze()
	ar := arch.MustNew(2, 1)
	s := sched.MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 11)
	is := sched.FromSchedule(s)
	if _, err := (&Runner{}).Run(is); err != nil {
		t.Fatal(err)
	}
	if got := BufferPeaks(is)[1]; got != 20 { // 4 instances × 5
		t.Errorf("buffer peak = %d, want 20", got)
	}
}

func TestCoLocationNeedsNoBuffer(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 1)
	b := ts.MustAddTask("b", 12, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	ar := arch.MustNew(1, 1)
	s := sched.MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 0, 10)
	is := sched.FromSchedule(s)
	if _, err := (&Runner{}).Run(is); err != nil {
		t.Fatal(err)
	}
	if peak := BufferPeaks(is)[0]; peak != 0 {
		t.Errorf("co-located transfer buffered: peak %d", peak)
	}
}

func TestRunRejectsLateArrival(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 6, 1, 1)
	b := ts.MustAddTask("b", 6, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	ar := arch.MustNew(2, 3)
	pl := sched.NewPlacements(ts)
	pl[ts.InstanceIndex(model.InstanceID{Task: a})] = sched.InstPlacement{Proc: 0, Start: 0}
	pl[ts.InstanceIndex(model.InstanceID{Task: b})] = sched.InstPlacement{Proc: 1, Start: 2} // needs 1+3 = 4
	is := sched.NewInstSchedule(ts, ar, pl)
	_, err := (&Runner{}).Run(is)
	if err == nil || !strings.Contains(err.Error(), "before its input") {
		t.Fatalf("late arrival not rejected: %v", err)
	}
}

func TestIdleRatioAndBusy(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 4, 2, 1)
	ts.MustFreeze()
	ar := arch.MustNew(2, 1)
	s := sched.MustNewSchedule(ts, ar)
	s.MustPlace(a, 0, 0) // busy [0,2): makespan 2... instances: H=4/4=1
	rep, err := (&Runner{}).Run(sched.FromSchedule(s))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs[0].Busy != 2 || rep.Procs[0].Instances != 1 {
		t.Errorf("P1 busy=%d instances=%d, want 2, 1", rep.Procs[0].Busy, rep.Procs[0].Instances)
	}
	// P2 fully idle, P1 fully busy over horizon 2 → mean idle 0.5.
	if rep.IdleRatio != 0.5 {
		t.Errorf("idle ratio = %v, want 0.5", rep.IdleRatio)
	}
}

func TestResidentAndTotalDemand(t *testing.T) {
	is := fig1Schedule(t, 4)
	rep, err := (&Runner{}).Run(is)
	if err != nil {
		t.Fatal(err)
	}
	// P1 holds 4 instances of a (mem 1 each); P2 one instance of b plus a
	// 4-datum buffer peak.
	if rep.Procs[0].ResidentMem != 4 {
		t.Errorf("P1 resident = %d, want 4", rep.Procs[0].ResidentMem)
	}
	if total := rep.Procs[1].ResidentMem + BufferPeaks(is)[1]; total != 1+4 {
		t.Errorf("P2 total demand = %d, want 5", total)
	}
}

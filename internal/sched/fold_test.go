package sched

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
)

// bruteFoldOverlaps is the full-fold oracle: every pair of instances on
// one processor, tried at every image k·H of the second that can reach
// the first's window. It returns Validate's overlap messages, sorted.
func bruteFoldOverlaps(is *InstSchedule) []string {
	h := is.TS.HyperPeriod()
	var out []string
	for p := arch.ProcID(0); int(p) < is.Arch.Procs; p++ {
		ids := is.InstancesOn(p)
		for i, a := range ids {
			as, ae := is.startOf(a), is.End(a)
			for _, b := range ids[i+1:] {
				bs, be := is.startOf(b), is.End(b)
				base := (as - bs) / h
				for k := base - 2; k <= base+2; k++ {
					if as < be+k*h && bs+k*h < ae {
						out = append(out, fmt.Sprintf("%s and %s overlap on %s", instLabel(is, a), instLabel(is, b), is.Arch.ProcName(p)))
						break
					}
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

func instLabel(is *InstSchedule, iid model.InstanceID) string {
	return fmt.Sprintf("%s#%d", is.TS.Task(iid.Task).Name, iid.K+1)
}

// validateOverlaps returns the overlap messages of Validate, sorted.
func validateOverlaps(is *InstSchedule) []string {
	var out []string
	for _, e := range is.Validate() {
		if e.Kind == "overlap" {
			out = append(out, e.Msg)
		}
	}
	slices.Sort(out)
	return out
}

// TestValidateFoldsEveryImage: two instances H·2 apart share a slot in
// steady state, which a check of the 0 and ±H images alone misses. Both
// validators must report it, the task-level one included.
func TestValidateFoldsEveryImage(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 12, 1, 1)
	b := ts.MustAddTask("b", 12, 2, 1)
	c := ts.MustAddTask("c", 12, 1, 1)
	ts.MustFreeze()
	s := MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(a, 0, 0)  // [0, 1)
	s.MustPlace(b, 0, 23) // [23, 25): its image [-1, 1) meets a
	s.MustPlace(c, 0, 38) // [38, 39): its image [2, 3) is free
	want := []string{"a#1 and b#1 overlap on P1"}
	var got []string
	for _, e := range s.Validate() {
		got = append(got, e.Msg)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Schedule.Validate = %q, want %q", got, want)
	}
	is := FromSchedule(s)
	if got := validateOverlaps(is); !slices.Equal(got, want) {
		t.Fatalf("InstSchedule.Validate = %q, want %q", got, want)
	}
	if got := bruteFoldOverlaps(is); !slices.Equal(got, want) {
		t.Fatalf("oracle = %q, want %q", got, want)
	}
}

// TestValidatePrecedenceNamesProducerEnd: the task-level precedence
// message reports the producer's end and the +C it needs, not the
// consumer's start twice.
func TestValidatePrecedenceNamesProducerEnd(t *testing.T) {
	ts, ids := chainSystem(t)
	s := MustNewSchedule(ts, arch.MustNew(2, 1))
	s.MustPlace(ids[0], 0, 0)
	s.MustPlace(ids[1], 1, 4) // a#2 ends at 4, +C = 5 > 4
	s.MustPlace(ids[2], 1, 6)
	var got []string
	for _, e := range s.Validate() {
		if e.Kind == "precedence" {
			got = append(got, e.Msg)
		}
	}
	want := []string{"a#2 (ends 4 +C=1) not complete before b#1 starts at 4"}
	if !slices.Equal(got, want) {
		t.Fatalf("precedence messages = %q, want %q", got, want)
	}
}

// TestCommTaskRoomFolds: a send task that collides with an instance only
// at image 2H is refused, and a comm-task pair is named as such.
func TestCommTaskRoomFolds(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 12, 2, 1)
	x := ts.MustAddTask("x", 12, 1, 1)
	b := ts.MustAddTask("b", 12, 2, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	s := MustNewSchedule(ts, arch.MustNew(2, 2))
	s.MustPlace(a, 0, 0)  // send slot [2, 3)
	s.MustPlace(x, 0, 26) // [26, 27) ≡ [2, 3) mod 12
	s.MustPlace(b, 1, 4)
	_, err := MaterializeCommTasks(s, 1)
	if err == nil || !strings.Contains(err.Error(), "send task for a#1→b#1 [2,3) overlaps x#1 on P1") {
		t.Fatalf("send/instance collision at 2H: %v", err)
	}
	cts := []CommTask{{Kind: SendTask, Proc: 1, Start: 0, Dur: 1}, {Kind: RecvTask, Proc: 1, Start: 36, Dur: 1}}
	if err := checkCommTaskRoom(s, cts); err == nil || !strings.Contains(err.Error(), "send task [0,1) and recv task [36,37) overlap on P2") {
		t.Fatalf("comm/comm collision at 3H: %v", err)
	}
}

// FuzzFoldValidate compares InstSchedule.Validate's overlap report with
// the brute-force oracle on small random schedules: two to five tasks on
// a harmonic ladder, each instance on a random processor, first starts
// up to 3H so images at |k| ≥ 2 matter.
func FuzzFoldValidate(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(1))
	f.Add(uint64(7), uint8(5), uint8(2))
	f.Add(uint64(42), uint8(4), uint8(0))
	f.Add(uint64(1234567), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, tasks, procs uint8) {
		next := func(n uint64) model.Time { // splitmix64, deterministic per seed
			seed += 0x9e3779b97f4a7c15
			z := seed
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return model.Time((z ^ z>>31) % n)
		}
		ladder := []model.Time{3, 6, 12}
		ts := model.NewTaskSet()
		n := 2 + int(tasks)%4
		for i := 0; i < n; i++ {
			period := ladder[next(3)]
			ts.MustAddTask(fmt.Sprintf("t%d", i), period, 1+next(uint64(period)), 1)
		}
		ts.MustFreeze()
		m := 1 + int(procs)%3
		h := ts.HyperPeriod()
		pl := NewPlacements(ts)
		for i := 0; i < n; i++ {
			id := model.TaskID(i)
			s0 := next(uint64(3 * h))
			for k := 0; k < ts.Instances(id); k++ {
				pl[ts.InstanceIndex(model.InstanceID{Task: id, K: k})] = InstPlacement{Proc: arch.ProcID(next(uint64(m))), Start: model.InstanceStart(s0, ts.Task(id).Period, k)}
			}
		}
		is := NewInstSchedule(ts, arch.MustNew(m, 1), pl)
		got, want := validateOverlaps(is), bruteFoldOverlaps(is)
		if !slices.Equal(got, want) {
			t.Fatalf("Validate overlaps %q, oracle %q", got, want)
		}
	})
}

// TestValidateReportsPairOnce: two windows longer than H/2 each start
// inside the other's folded window; the pair is still reported once.
func TestValidateReportsPairOnce(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 12, 7, 1)
	b := ts.MustAddTask("b", 12, 7, 1)
	ts.MustFreeze()
	s := MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(a, 0, 0)  // [0, 7)
	s.MustPlace(b, 0, 30) // [30, 37) ≡ [6, 13): b starts in a, a's next image in b
	is := FromSchedule(s)
	want := []string{"a#1 and b#1 overlap on P1"}
	if got := validateOverlaps(is); !slices.Equal(got, want) {
		t.Fatalf("Validate overlaps %q, want %q", got, want)
	}
	if got := bruteFoldOverlaps(is); !slices.Equal(got, want) {
		t.Fatalf("oracle %q, want %q", got, want)
	}
}

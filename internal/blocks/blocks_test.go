package blocks

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/sched"
)

// pair builds producer→consumer at the same period with the given gap
// between producer end and consumer start, on one processor, C=1.
func pair(t *testing.T, gap model.Time) *sched.InstSchedule {
	t.Helper()
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 12, 1, 1)
	b := ts.MustAddTask("b", 12, 1, 2)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	s := sched.MustNewSchedule(ts, arch.MustNew(1, 1))
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 0, 1+gap)
	return sched.FromSchedule(s)
}

func TestMergeWhenGapBelowC(t *testing.T) {
	blks := Build(pair(t, 0)) // consumer starts exactly at producer end
	if len(blks) != 1 {
		t.Fatalf("gap 0 < C: got %d blocks, want 1 merged block", len(blks))
	}
	b := blks[0]
	if len(b.Members) != 2 || b.Mem() != 3 || b.Exec() != 2 {
		t.Errorf("merged block wrong: members=%d mem=%d exec=%d", len(b.Members), b.Mem(), b.Exec())
	}
}

func TestSplitWhenGapAtLeastC(t *testing.T) {
	blks := Build(pair(t, 1)) // gap equals C: separable (eq. 1 satisfied)
	if len(blks) != 2 {
		t.Fatalf("gap ≥ C: got %d blocks, want 2", len(blks))
	}
}

func TestIndependentTasksNeverMerge(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 12, 1, 1)
	b := ts.MustAddTask("b", 12, 1, 1)
	ts.MustFreeze()
	s := sched.MustNewSchedule(ts, arch.MustNew(1, 5))
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 0, 1) // adjacent but independent
	blks := Build(sched.FromSchedule(s))
	if len(blks) != 2 {
		t.Fatalf("independent adjacent tasks merged: %d blocks", len(blks))
	}
}

func TestCategoryAssignment(t *testing.T) {
	// a at period 6 (2 instances in H=12), b at 12 depending on a.
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 6, 1, 1)
	b := ts.MustAddTask("b", 12, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	s := sched.MustNewSchedule(ts, arch.MustNew(1, 1))
	s.MustPlace(a, 0, 0) // a#1@0, a#2@6
	s.MustPlace(b, 0, 7) // merges with a#2 (gap 0 < C)
	blks := Build(sched.FromSchedule(s))
	if len(blks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blks))
	}
	// First block: [a#1] is category 1; second: [a#2, b#1] starts with a
	// second instance → category 2.
	if blks[0].Category != 1 {
		t.Errorf("block [a#1] category = %d, want 1", blks[0].Category)
	}
	if blks[1].Category != 2 {
		t.Errorf("block [a#2,b#1] category = %d, want 2", blks[1].Category)
	}
}

func TestBlocksSortedAndIDed(t *testing.T) {
	blks := Build(pair(t, 3))
	for i, b := range blks {
		if b.ID != i {
			t.Errorf("block %d has ID %d", i, b.ID)
		}
		if i > 0 && blks[i-1].Start() > b.Start() {
			t.Error("blocks not sorted by start")
		}
	}
}

func TestShiftMovesAllMembers(t *testing.T) {
	blks := Build(pair(t, 0))
	b := blks[0]
	before := make([]model.Time, len(b.Members))
	for i, m := range b.Members {
		before[i] = m.Start
	}
	b.Shift(-1)
	for i, m := range b.Members {
		if m.Start != before[i]-1 {
			t.Errorf("member %d start %d, want %d", i, m.Start, before[i]-1)
		}
	}
}

func TestBlockAccessors(t *testing.T) {
	blks := Build(pair(t, 0))
	b := blks[0]
	ts := pair(t, 0).TS // same structure
	if b.End(ts) != b.Start()+2 {
		t.Errorf("End = %d, want start+2 (two chained unit tasks)", b.End(ts))
	}
}

// Property-style check over the paper system: every instance belongs to
// exactly one block, and block aggregates match member sums.
func TestBlocksPartitionInstances(t *testing.T) {
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 4)
	b := ts.MustAddTask("b", 6, 1, 1)
	c := ts.MustAddTask("c", 6, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustAddDependence(b, c, 1)
	ts.MustFreeze()
	s := sched.MustNewSchedule(ts, arch.MustNew(2, 1))
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 5)
	s.MustPlace(c, 1, 6)
	is := sched.FromSchedule(s)
	blks := Build(is)

	seen := make(map[model.InstanceID]int)
	for _, bl := range blks {
		var mem model.Mem
		var exec model.Time
		for _, m := range bl.Members {
			seen[m.Inst]++
			mem += ts.Task(m.Inst.Task).Mem
			exec += ts.Task(m.Inst.Task).WCET
		}
		if mem != bl.Mem() || exec != bl.Exec() {
			t.Errorf("block %d aggregates mismatch: mem %d vs %d, exec %d vs %d",
				bl.ID, bl.Mem(), mem, bl.Exec(), exec)
		}
	}
	if len(seen) != ts.TotalInstances() {
		t.Fatalf("blocks cover %d instances, want %d", len(seen), ts.TotalInstances())
	}
	for iid, n := range seen {
		if n != 1 {
			t.Errorf("instance %v in %d blocks", iid, n)
		}
	}
}

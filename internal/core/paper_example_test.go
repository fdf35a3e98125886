package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/model"
	"repro/internal/sched"
)

// paperSystem builds the system of the paper's figure 2:
//
//	tasks   a(T=3,E=1,m=4)  b(T=6,E=1,m=1)  c(T=6,E=1,m=1)
//	        d(T=12,E=1,m=2) e(T=12,E=1,m=2)
//	deps    a→b, b→c, b→d, d→e
//	arch    P1,P2,P3 on one medium, C=1
//
// The dependence structure is the unique one consistent with every number
// published in §3.3 (initial makespan 15, b2 initially at 11, the seven
// documented moves, final makespan 14, final memory [10,6,8]).
func paperSystem(t testing.TB) (*model.TaskSet, *arch.Architecture, map[string]model.TaskID) {
	t.Helper()
	ts := model.NewTaskSet()
	ids := map[string]model.TaskID{
		"a": ts.MustAddTask("a", 3, 1, 4),
		"b": ts.MustAddTask("b", 6, 1, 1),
		"c": ts.MustAddTask("c", 6, 1, 1),
		"d": ts.MustAddTask("d", 12, 1, 2),
		"e": ts.MustAddTask("e", 12, 1, 2),
	}
	ts.MustAddDependence(ids["a"], ids["b"], 1)
	ts.MustAddDependence(ids["b"], ids["c"], 1)
	ts.MustAddDependence(ids["b"], ids["d"], 1)
	ts.MustAddDependence(ids["d"], ids["e"], 1)
	ts.MustFreeze()
	return ts, arch.MustNew(3, 1), ids
}

// paperInitial reproduces the initial distributed schedule of figure 3:
// P1: a@0 (instances 0,3,6,9); P2: b@5, c@6; P3: d@13, e@14.
func paperInitial(t testing.TB) *sched.Schedule {
	t.Helper()
	ts, ar, ids := paperSystem(t)
	s := sched.MustNewSchedule(ts, ar)
	s.MustPlace(ids["a"], 0, 0)
	s.MustPlace(ids["b"], 1, 5)
	s.MustPlace(ids["c"], 1, 6)
	s.MustPlace(ids["d"], 2, 13)
	s.MustPlace(ids["e"], 2, 14)
	if errs := s.Validate(); len(errs) > 0 {
		t.Fatalf("initial schedule invalid: %v", errs)
	}
	return s
}

func TestPaperInitialSchedule(t *testing.T) {
	s := paperInitial(t)
	if got := s.Makespan(); got != 15 {
		t.Errorf("initial makespan = %d, paper says 15", got)
	}
	want := []model.Mem{16, 4, 4}
	for p, w := range want {
		if got := s.MemVector()[p]; got != w {
			t.Errorf("initial memory on P%d = %d, paper says %d", p+1, got, w)
		}
	}
	if got := s.TS.HyperPeriod(); got != 12 {
		t.Errorf("hyper-period = %d, want 12", got)
	}
}

func TestPaperBlockConstruction(t *testing.T) {
	s := paperInitial(t)
	is := sched.FromSchedule(s)
	blks := blocks.Build(is)

	// Paper: each a_i is a block; [b1-c1], [b2-c2]; [d-e]. Seven blocks.
	if len(blks) != 7 {
		t.Fatalf("got %d blocks, paper has 7", len(blks))
	}
	type want struct {
		start    model.Time
		size     int
		category int
		mem      model.Mem
	}
	wants := []want{
		{0, 1, 1, 4},  // [a1]
		{3, 1, 2, 4},  // [a2]
		{5, 2, 1, 2},  // [b1-c1]
		{6, 1, 2, 4},  // [a3]
		{9, 1, 2, 4},  // [a4]
		{11, 2, 2, 2}, // [b2-c2]
		{13, 2, 1, 4}, // [d-e]
	}
	for i, w := range wants {
		b := blks[i]
		if b.Start() != w.start || len(b.Members) != w.size || b.Category != w.category || b.Mem() != w.mem {
			t.Errorf("block %d: start=%d size=%d cat=%d mem=%d, want %+v",
				i, b.Start(), len(b.Members), b.Category, b.Mem(), w)
		}
	}
}

// TestPaperWorkedExample replays §3.3 move by move and checks the final
// schedule matches figure 4.
func TestPaperWorkedExample(t *testing.T) {
	s := paperInitial(t)
	is := sched.FromSchedule(s)
	b := &Balancer{Policy: PolicyLexicographic, RecordCandidates: true}
	res, err := b.Run(is)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Forced != 0 {
		t.Fatalf("unexpected forced moves: %d", res.Forced)
	}
	if len(res.Moves) != 7 {
		t.Fatalf("got %d moves, want 7", len(res.Moves))
	}

	// Expected move sequence (processors are 0-based: P1=0, P2=1, P3=2).
	type wantMove struct {
		to       arch.ProcID
		oldStart model.Time
		newStart model.Time
		gain     model.Time
	}
	wants := []wantMove{
		{0, 0, 0, 0},   // 1. [a1] stays on P1
		{1, 3, 3, 0},   // 2. [a2] → P2
		{1, 5, 4, 1},   // 3. [b1-c1] → P2 with gain 1
		{2, 6, 6, 0},   // 4. [a3] → P3
		{0, 9, 9, 0},   // 5. [a4] → P1
		{0, 10, 10, 0}, // 6. [b2-c2] → P1 (start already propagated 11→10)
		{2, 13, 12, 1}, // 7. [d-e] → P3 with gain 1
	}
	for i, w := range wants {
		m := res.Moves[i]
		if m.To != w.to || m.OldStart != w.oldStart || m.NewStart != w.newStart || m.Gain != w.gain {
			t.Errorf("move %d: to=P%d old=%d new=%d gain=%d, want to=P%d old=%d new=%d gain=%d",
				i+1, m.To+1, m.OldStart, m.NewStart, m.Gain, w.to+1, w.oldStart, w.newStart, w.gain)
		}
	}

	// Step 6: only P1 is feasible ([b2-c2] is pinned at 10 and a4 sits on
	// P1 ending exactly at 10; any other processor would need +C).
	step6 := res.Moves[5]
	for _, c := range step6.Candidates {
		if c.Proc == 0 && !c.Feasible {
			t.Errorf("step 6: P1 should be feasible: %s", c.Reason)
		}
		if c.Proc != 0 && c.Feasible {
			t.Errorf("step 6: P%d should be infeasible", c.Proc+1)
		}
	}
	// Step 7: P1 rejected by the LCM condition, exactly as in the paper.
	step7 := res.Moves[6]
	for _, c := range step7.Candidates {
		if c.Proc == 0 {
			if c.Feasible || c.Reason != "LCM condition" {
				t.Errorf("step 7: P1 should fail the LCM condition, got feasible=%v reason=%q", c.Feasible, c.Reason)
			}
		}
	}

	// Figure 4 outcome.
	if res.MakespanBefore != 15 || res.MakespanAfter != 14 {
		t.Errorf("makespan %d→%d, paper says 15→14", res.MakespanBefore, res.MakespanAfter)
	}
	if res.GainTotal() != 1 {
		t.Errorf("Gtotal = %d, want 1", res.GainTotal())
	}
	wantMem := []model.Mem{10, 6, 8}
	for p, w := range wantMem {
		if got := res.MemAfter[p]; got != w {
			t.Errorf("final memory on P%d = %d, paper says %d", p+1, got, w)
		}
	}

	// The balanced schedule must satisfy every constraint.
	if errs := res.Schedule.Validate(); len(errs) > 0 {
		t.Fatalf("balanced schedule invalid: %v", errs)
	}
}

// TestPaperTheorem1OnExample checks 0 ≤ Gtotal ≤ γ(M−1)! on the worked
// example: γ = C = 1, M = 3 → bound 2, and the measured Gtotal is 1.
func TestPaperTheorem1OnExample(t *testing.T) {
	s := paperInitial(t)
	res, err := (&Balancer{}).Run(sched.FromSchedule(s))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	g := res.GainTotal()
	bound := model.Time(1 * factorial(3-1)) // γ(M−1)! = 1·2! = 2
	if g < 0 || g > bound {
		t.Errorf("Gtotal = %d outside [0, %d]", g, bound)
	}
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

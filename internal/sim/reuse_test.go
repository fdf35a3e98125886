package sim

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/sched"
)

func TestReuseCannotBeatMultiRateCoexistence(t *testing.T) {
	// Figure 1's point, co-located: all n producer buffers must coexist
	// until the slow consumer runs, so even a perfectly reusing allocator
	// needs the paper's full amount. n = 4, a (m=1) and b (m=1) on one
	// processor: 4 live a-buffers + b's own = 5 = the paper accounting.
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 1)
	b := ts.MustAddTask("b", 12, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	s := sched.MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 0, 10)
	rep := MinMemoryWithReuse(sched.FromSchedule(s))
	if rep.Reuse[0] != rep.Paper[0] {
		t.Errorf("co-located fig.1: reuse %d, paper %d — multi-rate coexistence should make them equal",
			rep.Reuse[0], rep.Paper[0])
	}
	if rep.Savings() != 0 {
		t.Errorf("savings = %v, want 0: reuse cannot help here", rep.Savings())
	}
}

func TestReuseProducerSideShipsDataAway(t *testing.T) {
	// Figure 1 cross-processor: the producer's buffers leave with each
	// transfer, so the producer side reuses one slot; the coexistence
	// cost moves to the consumer's receive buffer (BufferPeaks).
	is := fig1Schedule(t, 4)
	rep := MinMemoryWithReuse(is)
	if rep.Reuse[0] != 1 {
		t.Errorf("producer-side reuse peak = %d, want 1 (each datum ships before the next)", rep.Reuse[0])
	}
	if _, err := (&Runner{}).Run(is); err != nil {
		t.Fatal(err)
	}
	// Reuse-aware total demand on the consumer side: local tasks (1) +
	// the 4-datum receive buffer = 5 — no lower than the paper's total.
	peak := BufferPeaks(is)[1]
	total := rep.Reuse[1] + peak
	paper := rep.Paper[1] + peak
	if total != 5 || paper != 5 {
		t.Errorf("consumer-side demand: reuse-aware %d, paper %d, want both 5", total, paper)
	}
}

func TestReuseSavesOnDisjointLifetimes(t *testing.T) {
	// Two independent tasks sharing a processor back-to-back: their
	// buffers never coexist (no consumers), so the reuse peak is the max,
	// not the sum.
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 12, 2, 5)
	b := ts.MustAddTask("b", 12, 2, 3)
	ts.MustFreeze()
	s := sched.MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 0, 2)
	rep := MinMemoryWithReuse(sched.FromSchedule(s))
	if rep.Paper[0] != 8 {
		t.Fatalf("paper accounting = %d, want 8", rep.Paper[0])
	}
	if rep.Reuse[0] != 5 {
		t.Errorf("reuse accounting = %d, want 5 (max of disjoint lifetimes)", rep.Reuse[0])
	}
	if s := rep.Savings(); s <= 0 {
		t.Errorf("savings = %v, want > 0", s)
	}
}

func TestReuseRespectsConsumerExtension(t *testing.T) {
	// a feeds b on the same processor with a gap: a's buffer stays live
	// until b completes, overlapping b's own buffer.
	ts := model.NewTaskSet()
	a := ts.MustAddTask("a", 12, 1, 4)
	b := ts.MustAddTask("b", 12, 1, 2)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	s := sched.MustNewSchedule(ts, arch.MustNew(1, 0))
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 0, 5)
	rep := MinMemoryWithReuse(sched.FromSchedule(s))
	// a's data lives [0, b.end=6); b lives [5,6): both live at t=5 → 6.
	if rep.Reuse[0] != 6 {
		t.Errorf("reuse peak = %d, want 6 (producer buffer held for its consumer)", rep.Reuse[0])
	}
}

func TestReuseNeverExceedsPaper(t *testing.T) {
	for n := model.Time(1); n <= 6; n++ {
		rep := MinMemoryWithReuse(fig1Schedule(t, n))
		for p := range rep.Paper {
			if rep.Reuse[p] > rep.Paper[p] {
				t.Errorf("n=%d P%d: reuse %d exceeds paper accounting %d", n, p+1, rep.Reuse[p], rep.Paper[p])
			}
		}
	}
}

// TestSavingsDisambiguation pins the two meanings Savings' bare zero
// conflates and SavingsOK separates: "nothing to compare" (ΣPaper==0,
// ok=false) versus "a measured zero" (ΣPaper==ΣReuse>0, ok=true). The
// reuse analyzer's savings_defined column builds directly on this.
func TestSavingsDisambiguation(t *testing.T) {
	// ΣPaper == 0: the fraction is undefined; 0 is a convention.
	undefined := &MemReuseReport{Paper: []model.Mem{0, 0}, Reuse: []model.Mem{0, 0}}
	if s, ok := undefined.SavingsOK(); s != 0 || ok {
		t.Fatalf("SavingsOK with ΣPaper=0 = (%v, %v), want (0, false)", s, ok)
	}
	if s := undefined.Savings(); s != 0 {
		t.Fatalf("Savings with ΣPaper=0 = %v, want the documented 0 convention", s)
	}

	// Genuinely no savings: a real measurement of zero.
	zero := &MemReuseReport{Paper: []model.Mem{3, 2}, Reuse: []model.Mem{3, 2}}
	if s, ok := zero.SavingsOK(); s != 0 || !ok {
		t.Fatalf("SavingsOK with ΣPaper=ΣReuse = (%v, %v), want (0, true)", s, ok)
	}

	// And a real saving for contrast: 1 − 6/8.
	save := &MemReuseReport{Paper: []model.Mem{4, 4}, Reuse: []model.Mem{3, 3}}
	if s, ok := save.SavingsOK(); s != 0.25 || !ok {
		t.Fatalf("SavingsOK = (%v, %v), want (0.25, true)", s, ok)
	}
	if s := save.Savings(); s != 0.25 {
		t.Fatalf("Savings = %v, want 0.25", s)
	}
}

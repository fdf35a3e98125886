package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/sched"
)

// TestEvaluateAllocFree pins the balancer's per-candidate evaluation —
// the innermost hot path, run blocks×processors times per trial — at
// zero allocations once the run-wide scratch is warm, time-index queries
// and the once-per-block dependence bounds included. Candidate records and
// slices in particular must only appear under RecordCandidates.
func TestEvaluateAllocFree(t *testing.T) {
	ts, err := gen.Generate(gen.Config{Seed: 7, Tasks: 40, Utilization: 3})
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.MustNew(4, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		t.Fatal(err)
	}
	is := sched.FromSchedule(s)

	st := NewPlan(is).newState()

	// Place the first half of the blocks, so the queries below run
	// against populated moved-interval and reservation indexes.
	b := &Balancer{}
	w := walk{st: st, pols: []int{0}}
	for len(w.moves) < len(st.blks)/2 {
		b.placeBlock(&w, []Policy{b.Policy}, false)
	}
	bl := st.next()
	st.removeResv(bl)
	ctx := newPctx(st, bl, false)
	defer ctx.release()

	// One warm-up round first. The placement sweeps keep no scratch
	// buffer (one cursor per sorted run, on the stack), so nothing needs
	// to grow; the round only fills the once-per-block propagation cap.
	for p := arch.ProcID(0); int(p) < ar.Procs; p++ {
		b.evaluate(ctx, p, true)
		b.land(ctx, p)
	}
	moved := 0
	for p := range st.occ {
		for _, it := range st.occ[p].items {
			if it.task < 0 {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no moved intervals: the queries would not be exercised")
	}
	allocs := testing.AllocsPerRun(100, func() {
		ctx.depsOnce = false // recompute the per-block bounds every round
		for p := arch.ProcID(0); int(p) < ar.Procs; p++ {
			b.evaluate(ctx, p, true)
			b.land(ctx, p) // the relaxed pass's deferred probe
		}
	})
	if allocs != 0 {
		t.Fatalf("evaluate allocates %.1f objects per block, want 0", allocs)
	}
}

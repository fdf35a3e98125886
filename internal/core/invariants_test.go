package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sched"
)

// randomBalanced runs scheduler + balancer on a random system and returns
// the result (skipping seeds the initial scheduler cannot place, which is
// legitimate for a heuristic).
func randomBalanced(t *testing.T, seed int64, tasks, procs int, policy Policy) (*Result, *sched.Schedule) {
	t.Helper()
	ts := gen.MustGenerate(gen.Config{Seed: seed, Tasks: tasks, Utilization: 2.5})
	ar := arch.MustNew(procs, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		t.Skipf("seed %d: initial scheduler: %v", seed, err)
	}
	res, err := (&Balancer{Policy: policy}).Run(sched.FromSchedule(s))
	if err != nil {
		t.Fatalf("seed %d: balancer: %v", seed, err)
	}
	return res, s
}

// TestBalancedSchedulesStayValid is the central soundness invariant: on
// random systems, the balanced schedule must satisfy strict periodicity,
// non-overlap, precedence (+C cross-processor) — unless the run reported
// forced blocks, which flag exactly the inputs where the paper's
// heuristic has no feasible processor.
func TestBalancedSchedulesStayValid(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		res, _ := randomBalanced(t, seed, 30, 5, PolicyLexicographic)
		if res.Forced > 0 {
			t.Logf("seed %d: %d forced blocks (allowed, reported)", seed, res.Forced)
			continue
		}
		if errs := res.Schedule.Validate(); len(errs) > 0 {
			t.Errorf("seed %d: balanced schedule invalid: %v", seed, errs[0])
		}
	}
}

// TestTheorem1LowerBound: Gtotal ≥ 0 always (the heuristic never makes
// the total execution time worse). This is the sound half of Theorem 1.
//
// The upper half, Gtotal ≤ γ(M−1)!, is a *finding* of this reproduction:
// it holds on the paper's worked example and on serial-ish schedules, but
// random parallel DAGs violate it — suppressed communications cascade
// through dependence chains, so the total gain is not bounded by one γ
// per processor pair. The violation rate is measured and reported by the
// E4 experiment (EXPERIMENTS.md); here we assert only the sound bounds
// Gtotal ∈ [0, MakespanBefore].
func TestTheorem1LowerBound(t *testing.T) {
	violations := 0
	for seed := int64(0); seed < 25; seed++ {
		res, _ := randomBalanced(t, seed, 30, 4, PolicyLexicographic)
		g := res.GainTotal()
		if g < 0 {
			t.Errorf("seed %d: Gtotal = %d < 0", seed, g)
		}
		if g > res.MakespanBefore {
			t.Errorf("seed %d: Gtotal = %d exceeds the initial makespan %d", seed, g, res.MakespanBefore)
		}
		if analysis.CheckTheorem1(g, 1, 4) != nil {
			violations++
		}
	}
	t.Logf("paper upper bound γ(M−1)! exceeded on %d/25 seeds (documented deviation, see EXPERIMENTS.md E4)", violations)
}

// TestMakespanNeverIncreases is the lower half of Theorem 1 on its own:
// the heuristic must never make the total execution time worse.
func TestMakespanNeverIncreases(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		res, _ := randomBalanced(t, seed, 40, 6, PolicyLexicographic)
		if res.MakespanAfter > res.MakespanBefore {
			t.Errorf("seed %d: makespan increased %d → %d", seed, res.MakespanBefore, res.MakespanAfter)
		}
	}
}

// TestTheorem2AlphaApproximation: in the memory-only regime, ω/ωopt must
// stay within 2 − 1/M. The optimum is the branch-and-bound partitioner
// over the same blocks.
func TestTheorem2AlphaApproximation(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ts := gen.MustGenerate(gen.Config{Seed: seed, Tasks: 12, Utilization: 2})
		for _, m := range []int{2, 3, 4} {
			ar := arch.MustNew(m, 1)
			s, err := sched.NewScheduler(ts, ar).Run()
			if err != nil {
				continue
			}
			is := sched.FromSchedule(s)
			b := &Balancer{Policy: PolicyMemoryOnly, IgnoreTiming: true}
			res, err := b.Run(is)
			if err != nil {
				t.Fatalf("seed %d m %d: %v", seed, m, err)
			}
			items := partition.FromBlocks(blocks.Build(is))
			_, opt := partition.OptimalMaxMem(items, m)
			got := metrics.MaxMem(res.MemAfter)
			if err := analysis.CheckTheorem2(got, opt, m); err != nil {
				t.Errorf("seed %d m %d: %v", seed, m, err)
			}
		}
	}
}

// TestMemoryOnlyIsGreedyMinLoad: with timing ignored, the heuristic must
// place each block on the processor with the least memory so far — the
// §5.2 reduction the approximation proof relies on.
func TestMemoryOnlyIsGreedyMinLoad(t *testing.T) {
	res, _ := randomBalanced(t, 3, 20, 3, PolicyMemoryOnly)
	_ = res // policy applied with timing filters; the dedicated check below uses IgnoreTiming.

	ts := gen.MustGenerate(gen.Config{Seed: 3, Tasks: 20, Utilization: 2})
	ar := arch.MustNew(3, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		t.Skip("initial scheduler failed")
	}
	is := sched.FromSchedule(s)
	b := &Balancer{Policy: PolicyMemoryOnly, IgnoreTiming: true, RecordCandidates: true}
	resMem, err := b.Run(is)
	if err != nil {
		t.Fatal(err)
	}
	for i, mv := range resMem.Moves {
		// The chosen processor must have had the minimum MemSum among
		// candidates at decision time.
		min := mv.Candidates[0].MemSum
		for _, c := range mv.Candidates {
			if c.MemSum < min {
				min = c.MemSum
			}
		}
		var chosen *Candidate
		for j := range mv.Candidates {
			if mv.Candidates[j].Proc == mv.To {
				chosen = &mv.Candidates[j]
			}
		}
		if chosen == nil || chosen.MemSum != min {
			t.Errorf("move %d: chose processor with mem %v, min was %d", i, chosen, min)
		}
	}
}

// TestRatioPolicyRuns exercises the literal eq. (5) policy for validity.
func TestRatioPolicyRuns(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		res, _ := randomBalanced(t, seed, 25, 4, PolicyRatio)
		if res.Forced == 0 {
			if errs := res.Schedule.Validate(); len(errs) > 0 {
				t.Errorf("seed %d: ratio policy produced invalid schedule: %v", seed, errs[0])
			}
		}
		if res.MakespanAfter > res.MakespanBefore {
			t.Errorf("seed %d: ratio policy increased makespan", seed)
		}
	}
}

// TestBalancerPreservesInstanceCount: every instance present before is
// present after, exactly once.
func TestBalancerPreservesInstanceCount(t *testing.T) {
	res, s := randomBalanced(t, 7, 30, 5, PolicyLexicographic)
	want := s.TS.TotalInstances()
	got := 0
	for p := arch.ProcID(0); int(p) < 5; p++ {
		got += len(res.Schedule.InstancesOn(p))
	}
	if got != want {
		t.Errorf("instances after balancing: %d, want %d", got, want)
	}
}

// TestBalancerIdempotentOnBalancedInput: re-running the balancer on its
// own output must not increase makespan or max memory.
func TestBalancerIdempotentOnBalancedInput(t *testing.T) {
	res, _ := randomBalanced(t, 11, 30, 5, PolicyLexicographic)
	if res.Forced > 0 {
		t.Skip("forced moves on this seed")
	}
	res2, err := (&Balancer{}).Run(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MakespanAfter > res.MakespanAfter {
		t.Errorf("second pass increased makespan %d → %d", res.MakespanAfter, res2.MakespanAfter)
	}
}

// TestMemoryCapacityRespected: with a bounded architecture the balancer
// must never exceed capacity (it refuses candidate processors that
// would).
func TestMemoryCapacityRespected(t *testing.T) {
	ts := gen.MustGenerate(gen.Config{Seed: 5, Tasks: 20, Utilization: 2})
	ar := arch.MustNew(4, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		t.Skip("initial scheduler failed")
	}
	is := sched.FromSchedule(s)
	// Capacity: generous enough to fit, tight enough to constrain
	// (total/4 would be a perfect split over 4 processors; allow 1.5×).
	var all model.Mem
	for _, v := range is.MemVector() {
		all += v
	}
	ar.SetMemCapacity(all/4 + all/8)

	res, err := (&Balancer{}).Run(is)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forced > 0 {
		t.Skip("capacity too tight for this seed")
	}
	for p, v := range res.Schedule.MemVector() {
		if v > ar.MemCapacity {
			t.Errorf("P%d exceeds capacity: %d > %d", p+1, v, ar.MemCapacity)
		}
	}
}

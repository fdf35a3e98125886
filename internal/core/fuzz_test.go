package core

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
)

// fuzzLadders are the period ladders a fuzz input can pick: the
// generator default, the short ladder of the property tests, and one
// more harmonic set.
var fuzzLadders = [][]model.Time{nil, {4, 8, 16}, {5, 10, 20, 40}}

// fuzzInput decodes one fuzz input into a small system: at most 40
// tasks, 2–6 processors, utilisation 0.1–4.0, any policy.
func fuzzInput(seed int64, tasks, procs, policy, util, ladder uint8) (gen.Config, int, Policy) {
	cfg := gen.Config{
		Seed:        seed,
		Tasks:       1 + int(tasks)%40,
		Utilization: 0.1 * float64(1+int(util)%40),
		Periods:     fuzzLadders[int(ladder)%len(fuzzLadders)],
	}
	return cfg, 2 + int(procs)%5, Policy(int(policy) % 3)
}

// fuzzSeed is the inverse of fuzzInput for the corpus below.
func fuzzSeed(f *testing.F, seed int64, tasks, procs int, policy Policy, util float64, ladder int) {
	f.Add(seed, uint8(tasks-1), uint8(procs-2), uint8(policy), uint8(util*10+0.5)-1, uint8(ladder))
}

// foldCollision is the brute-force full-fold oracle: it tries every pair
// of instances on one processor at every image k·H that can reach the
// first's window (imageHit), and returns the first colliding pair.
func foldCollision(is *sched.InstSchedule) (string, bool) {
	h := is.TS.HyperPeriod()
	for p := arch.ProcID(0); int(p) < is.Arch.Procs; p++ {
		ids := is.InstancesOn(p)
		for i, a := range ids {
			pa, _ := is.Placement(a)
			for _, b := range ids[i+1:] {
				pb, _ := is.Placement(b)
				if hit, k := imageHit(pa.Start, is.End(a), pb.Start, is.End(b), h); hit {
					return fmt.Sprintf("%v at %d and %v at %d collide on P%d at image %d·H", a, pa.Start, b, pb.Start, p+1, k), true
				}
			}
		}
	}
	return "", false
}

// FuzzBalancerInvariants checks the paper's invariants on generated
// systems: for every input the substrate scheduler accepts, the balanced
// schedule is valid, also by the full-fold oracle (foldCollision),
// Gtotal ≥ 0 (the makespan never grows), and every instance is still
// placed exactly once. At every placement step it also
// checks the indexed placement queries against their linear-scan
// references (checkPlacementQueries), and every pass of the default,
// eq. (4)-free and untimed balancers against the evaluate-everything
// placement loop (checkPlacementMatchesReference). The seed corpus is
// the set of configurations the fixed-case invariant and property tests
// use, so plain `go test` runs it; `go test -fuzz
// FuzzBalancerInvariants` explores beyond it.
func FuzzBalancerInvariants(f *testing.F) {
	for seed := int64(0); seed < 25; seed++ {
		fuzzSeed(f, seed, 30, 5, PolicyLexicographic, 2.5, 0) // TestBalancedSchedulesStayValid
		fuzzSeed(f, seed, 30, 4, PolicyLexicographic, 2.5, 0) // TestTheorem1LowerBound
		fuzzSeed(f, seed, 40, 6, PolicyLexicographic, 2.5, 0) // TestMakespanNeverIncreases
	}
	for seed := int64(0); seed < 10; seed++ {
		fuzzSeed(f, seed, 25, 4, PolicyRatio, 2.5, 0) // TestRatioPolicyRuns
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, m := range []int{2, 3, 4} {
			fuzzSeed(f, seed, 12, m, PolicyMemoryOnly, 2, 0) // TestTheorem2AlphaApproximation
		}
	}
	fuzzSeed(f, 3, 20, 3, PolicyMemoryOnly, 2, 0)    // TestMemoryOnlyIsGreedyMinLoad
	fuzzSeed(f, 5, 20, 4, PolicyLexicographic, 2, 0) // TestMemoryCapacityRespected
	// The property tests' mini systems: 2–7 tasks on the short ladder,
	// three processors.
	for n := 2; n <= 7; n++ {
		fuzzSeed(f, int64(n), n, 3, PolicyLexicographic, 1, 1)
	}

	f.Fuzz(func(t *testing.T, seed int64, tasks, procs, policy, util, ladder uint8) {
		cfg, m, pol := fuzzInput(seed, tasks, procs, policy, util, ladder)
		ts, err := gen.Generate(cfg)
		if err != nil {
			return // the generator refuses this shape
		}
		s, err := sched.NewScheduler(ts, arch.MustNew(m, 1)).Run()
		if err != nil {
			return // unschedulable: nothing to balance
		}
		b := &Balancer{Policy: pol}
		var tally diffTally
		b.probe = func(ctx pctx) { checkPlacementQueries(t, &ctx, &tally) }
		res, err := b.Run(sched.FromSchedule(s))
		if err != nil {
			t.Fatalf("%+v M=%d %v: balancer: %v", cfg, m, pol, err)
		}
		if errs := res.Schedule.Validate(); len(errs) > 0 {
			t.Fatalf("%+v M=%d %v: balanced schedule invalid (%d forced blocks): %v", cfg, m, pol, res.Forced, errs[0])
		}
		if msg, bad := foldCollision(res.Schedule); bad {
			t.Fatalf("%+v M=%d %v: balanced schedule collides in steady state: %s", cfg, m, pol, msg)
		}
		if g := res.GainTotal(); g < 0 || res.MakespanAfter > res.MakespanBefore {
			t.Fatalf("%+v M=%d %v: Gtotal %d, makespan %d → %d", cfg, m, pol, g, res.MakespanBefore, res.MakespanAfter)
		}
		placed := 0
		for p := arch.ProcID(0); int(p) < m; p++ {
			placed += len(res.Schedule.InstancesOn(p))
		}
		if placed != ts.TotalInstances() {
			t.Fatalf("%+v M=%d %v: %d instances placed after balancing, want %d", cfg, m, pol, placed, ts.TotalInstances())
		}
		var pruned pruneTally
		for _, v := range balancerVariants(pol) {
			for _, conservative := range []bool{false, true} {
				checkPlacementMatchesReference(t, &v, sched.FromSchedule(s), conservative, &pruned,
					fmt.Sprintf("%+v M=%d %v disableLCM=%v ignoreTiming=%v conservative=%v",
						cfg, m, pol, v.DisableLCMCondition, v.IgnoreTiming, conservative))
			}
		}
	})
}

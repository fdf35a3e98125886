// Package repro_test holds the benchmark harness: one testing.B benchmark
// per experiment of EXPERIMENTS.md (E1–E9), so `go test -bench=.` at the
// module root regenerates the timing side of every table and figure.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sim"
)

// paperExampleSchedule builds the §3.3 initial schedule (figure 3).
func paperExampleSchedule(tb testing.TB) *sched.Schedule {
	tb.Helper()
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
	s := sched.MustNewSchedule(ts, arch.MustNew(3, 1))
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 5)
	s.MustPlace(c, 1, 6)
	s.MustPlace(d, 2, 13)
	s.MustPlace(e, 2, 14)
	return s
}

// BenchmarkPaperExample — E1: the full worked example (figures 2–4).
func BenchmarkPaperExample(b *testing.B) {
	s := paperExampleSchedule(b)
	is := sched.FromSchedule(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := (&core.Balancer{}).Run(is)
		if err != nil {
			b.Fatal(err)
		}
		if res.MakespanAfter != 14 {
			b.Fatalf("makespan %d, want 14", res.MakespanAfter)
		}
	}
}

// BenchmarkMultiRateBuffer — E2: figure 1 buffer measurement across rate
// ratios.
func BenchmarkMultiRateBuffer(b *testing.B) {
	for _, n := range []model.Time{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ts := model.NewTaskSet()
			pa := ts.MustAddTask("a", 3, 1, 1)
			pb := ts.MustAddTask("b", 3*n, 1, 1)
			ts.MustAddDependence(pa, pb, 1)
			ts.MustFreeze()
			s := sched.MustNewSchedule(ts, arch.MustNew(2, 1))
			s.MustPlace(pa, 0, 0)
			s.MustPlace(pb, 1, 3*(n-1)+2)
			is := sched.FromSchedule(s)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (&sim.Runner{}).Run(is); err != nil {
					b.Fatal(err)
				}
				if peak := sim.BufferPeaks(is)[1]; peak != model.Mem(n) {
					b.Fatalf("peak %d, want %d", peak, n)
				}
			}
		})
	}
}

// scalingInput prepares one E3 configuration outside the timed region.
func scalingInput(tb testing.TB, tasks, procs int, util float64) *sched.InstSchedule {
	tb.Helper()
	ts, err := gen.Generate(gen.Config{
		Seed: 1, Tasks: tasks, Utilization: util,
		Periods: []model.Time{100, 200, 400},
	})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := sched.NewScheduler(ts, arch.MustNew(procs, 1)).Run()
	if err != nil {
		tb.Skipf("initial scheduler: %v", err)
	}
	return sched.FromSchedule(s)
}

// BenchmarkHeuristicScaling — E3: runtime vs N and M (§4 complexity).
func BenchmarkHeuristicScaling(b *testing.B) {
	for _, cfg := range []struct {
		tasks, procs int
		util         float64
	}{
		{100, 4, 3}, {200, 4, 3}, {400, 8, 6}, {800, 8, 6}, {1600, 16, 12},
	} {
		b.Run(fmt.Sprintf("N=%d/M=%d", cfg.tasks, cfg.procs), func(b *testing.B) {
			is := scalingInput(b, cfg.tasks, cfg.procs, cfg.util)
			nb := len(blocks.Build(is))
			b.ReportMetric(float64(nb), "blocks")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (&core.Balancer{}).Run(is); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInitialScheduler — E3 companion: the reference-[4] substrate.
func BenchmarkInitialScheduler(b *testing.B) {
	for _, cfg := range []struct{ tasks, procs int }{{100, 4}, {400, 8}, {1600, 16}} {
		b.Run(fmt.Sprintf("N=%d/M=%d", cfg.tasks, cfg.procs), func(b *testing.B) {
			ts, err := gen.Generate(gen.Config{
				Seed: 1, Tasks: cfg.tasks, Utilization: float64(cfg.procs) * 0.75,
				Periods: []model.Time{100, 200, 400},
			})
			if err != nil {
				b.Fatal(err)
			}
			ar := arch.MustNew(cfg.procs, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.NewScheduler(ts, ar).Run(); err != nil {
					b.Skip(err)
				}
			}
		})
	}
}

// BenchmarkGainBounds — E4: balancing with Theorem 1 accounting.
func BenchmarkGainBounds(b *testing.B) {
	is := scalingInput(b, 200, 4, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := (&core.Balancer{}).Run(is)
		if err != nil {
			b.Fatal(err)
		}
		if res.GainTotal() < 0 {
			b.Fatal("negative Gtotal")
		}
	}
}

// BenchmarkAlphaApprox — E5: memory-only heuristic vs B&B optimum.
func BenchmarkAlphaApprox(b *testing.B) {
	// Small harmonic ladder so the instance is schedulable on 3
	// processors and the block count stays within the exact B&B budget.
	ts := gen.MustGenerate(gen.Config{Seed: 2, Tasks: 10, Utilization: 1.5,
		Periods: []model.Time{20, 40}})
	ar := arch.MustNew(3, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		b.Skip(err)
	}
	is := sched.FromSchedule(s)
	items := partition.FromBlocks(blocks.Build(is))
	b.Run("heuristic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&core.Balancer{Policy: core.PolicyMemoryOnly, IgnoreTiming: true}).Run(is); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimal-bnb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.OptimalMaxMem(items, 3)
		}
	})
}

// BenchmarkSimulator — E6: the discrete-event executor.
func BenchmarkSimulator(b *testing.B) {
	is := scalingInput(b, 400, 8, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&sim.Runner{}).Run(is); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines — E7: the comparators on one block set.
func BenchmarkBaselines(b *testing.B) {
	ts := gen.MustGenerate(gen.Config{Seed: 2, Tasks: 14, Utilization: 2})
	ar := arch.MustNew(4, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		b.Skip(err)
	}
	items := partition.FromBlocks(blocks.Build(sched.FromSchedule(s)))
	b.Run("lpt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.LPT(items, 4)
		}
	})
	b.Run("membalance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.MemBalance(items, 4)
		}
	})
	b.Run("genetic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partition.GA(items, 4, partition.GAConfig{Seed: int64(i), Generations: 50})
		}
	})
}

// BenchmarkAblation — E8: the heuristic under each design-choice variant.
func BenchmarkAblation(b *testing.B) {
	is := scalingInput(b, 100, 4, 3)
	for _, v := range []struct {
		name string
		bal  core.Balancer
	}{
		{"lexicographic", core.Balancer{Policy: core.PolicyLexicographic}},
		{"ratio", core.Balancer{Policy: core.PolicyRatio}},
		{"memory-only", core.Balancer{Policy: core.PolicyMemoryOnly}},
		{"no-lcm", core.Balancer{DisableLCMCondition: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			bal := v.bal
			for i := 0; i < b.N; i++ {
				if _, err := bal.Run(is); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExhaustive — E9: the optimal-script search on a tiny instance.
func BenchmarkExhaustive(b *testing.B) {
	s := paperExampleSchedule(b)
	is := sched.FromSchedule(s)
	bal := &core.Balancer{}
	for i := 0; i < b.N; i++ {
		if _, _, err := bal.ExhaustiveBest(is, core.ObjectiveMakespan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaign — the parallel experiment-campaign engine on a
// fixed sweep, at 1 worker vs GOMAXPROCS workers. The ratio between the
// two sub-benchmarks is the engine's parallel speedup (the aggregates
// themselves are bit-identical at any worker count, so the serial run
// is a pure baseline, not a different computation).
func BenchmarkCampaign(b *testing.B) {
	spec := func() *campaign.Spec {
		return &campaign.Spec{
			Name:        "bench",
			Seeds:       16,
			Tasks:       []int{60},
			Utilization: []float64{3},
			Procs:       []int{5},
		}
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := (&campaign.Engine{Workers: workers}).Run(spec())
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Trials) != 16 {
					b.Fatalf("trials: %d", len(res.Trials))
				}
			}
		})
	}
}

// BenchmarkEndToEnd — the full public-API pipeline, as a downstream user
// would run it.
func BenchmarkEndToEnd(b *testing.B) {
	ts, err := repro.Generate(repro.GenConfig{Seed: 5, Tasks: 60, Utilization: 3})
	if err != nil {
		b.Fatal(err)
	}
	ar := repro.MustNewArchitecture(5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := repro.Schedule(ts, ar)
		if err != nil {
			b.Skip(err)
		}
		res, err := repro.Balance(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := repro.Simulate(res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}

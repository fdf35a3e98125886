package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
)

// paperScaleConfig is the regime the paper claims ("several thousands of
// tasks and tens of processors", §4): ≥ 1000 task instances on 16
// processors. Seed 1 at util 8 is schedulable by the greedy substrate,
// so the benchmark exercises the full pipeline rather than the failure
// path.
func paperScaleConfig() (gen.Config, int) {
	return gen.Config{
		Seed:        1,
		Tasks:       300,
		Utilization: 8,
		Periods:     []model.Time{10, 20, 40, 80},
	}, 16
}

// upperPaperScaleConfig is the upper regime of the paper-phase sweep:
// 600 tasks at U 12 on 32 processors (≈2200 instances). The balancer's
// placement queries scale with the blocks per processor, so this case
// shows what the 300×16 one understates.
func upperPaperScaleConfig() (gen.Config, int) {
	return gen.Config{
		Seed:        1,
		Tasks:       600,
		Utilization: 12,
		Periods:     []model.Time{10, 20, 40, 80},
	}, 32
}

// unschedulableConfig is N=600/U=12 on 16 processors at seed 0, a
// paper-phase grid point whose demand exceeds M·H: the engine's
// necessary-condition screen refuses it before scheduling.
func unschedulableConfig() (gen.Config, int) {
	return gen.Config{
		Seed:        0,
		Tasks:       600,
		Utilization: 12,
		Periods:     []model.Time{10, 20, 40, 80},
	}, 16
}

// heuristicMissConfig is N=300/U=8 on 16 processors at seed 3, a
// paper-phase grid point that passes the screen and that the scheduler
// still fails after every repair round: the engine runs all of them.
func heuristicMissConfig() (gen.Config, int) {
	return gen.Config{
		Seed:        3,
		Tasks:       300,
		Utilization: 8,
		Periods:     []model.Time{10, 20, 40, 80},
	}, 16
}

func paperScaleInput(tb testing.TB) (*model.TaskSet, *arch.Architecture) {
	tb.Helper()
	cfg, procs := paperScaleConfig()
	return scaleInput(tb, cfg, procs)
}

func scaleInput(tb testing.TB, cfg gen.Config, procs int) (*model.TaskSet, *arch.Architecture) {
	tb.Helper()
	ts, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if ts.TotalInstances() < 1000 {
		tb.Fatalf("paper-scale config yields %d instances, want ≥ 1000", ts.TotalInstances())
	}
	return ts, arch.MustNew(procs, 1)
}

// TestTrialAllocNeutral pins the zero-analyzer fast path of the
// pipeline BenchmarkTrial measures: a trial with no analyzers attached
// must neither record balancer candidates nor build an extras payload,
// so its allocation count stays where the optimisations left it. The
// cap carries ~15% headroom over the measured 264 allocs/trial for this
// configuration; an analyzer-plumbing regression (candidate slices on
// by default, eager extras maps) blows well past it.
func TestTrialAllocNeutral(t *testing.T) {
	trial := campaign.Trial{Cell: "alloc", Gen: gen.Config{Seed: 3, Tasks: 12, Utilization: 1.5}, Procs: 3, Comm: 1}
	if r, err := campaign.RunTrial(trial); err != nil || r.Outcome != campaign.OutcomeOK || r.Extras != nil {
		t.Fatalf("warmup: outcome %q extras %v err %v", r.Outcome, r.Extras, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if r, err := campaign.RunTrial(trial); err != nil || r.Outcome != campaign.OutcomeOK {
			t.Fatalf("outcome %q err %v", r.Outcome, err)
		}
	})
	const maxAllocs = 304
	if allocs > maxAllocs {
		t.Fatalf("zero-analyzer trial allocates %.0f objects, cap %d — analyzer plumbing leaked into the fast path", allocs, maxAllocs)
	}

	// Telemetry must ride along for free: a recorder is a fixed block of
	// atomics, so the observed trial stays under the same cap — within
	// one object of the unobserved run — or the obs layer has started
	// allocating on the hot path.
	rec := obs.NewSet(1).Recorder(0)
	observed := testing.AllocsPerRun(20, func() {
		if r, err := campaign.RunTrialObserved(trial, rec); err != nil || r.Outcome != campaign.OutcomeOK {
			t.Fatalf("outcome %q err %v", r.Outcome, err)
		}
	})
	if observed > maxAllocs || observed > allocs+1 {
		t.Fatalf("observed trial allocates %.0f objects vs %.0f unobserved (cap %d) — telemetry leaked onto the hot path", observed, allocs, maxAllocs)
	}

	// The analyzer path is the one allowed to pay: the same grid point
	// with analyzers attached must produce extras (and may allocate).
	spec := &campaign.Spec{
		Seeds: 1, SeedBase: 3,
		Tasks: []int{12}, Utilization: []float64{1.5}, Procs: []int{3},
		Analyzers: []string{"schedulability", "moves", "contention"},
	}
	trials, err := spec.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if r, err := campaign.RunTrial(trials[0]); err != nil || r.Outcome != campaign.OutcomeOK || len(r.Extras) == 0 {
		t.Fatalf("analyzer trial: outcome %q, %d extras, err %v", r.Outcome, len(r.Extras), err)
	}
}

// TestTrialBytesAtPaperScale caps the bytes and objects one
// zero-analyzer trial allocates in the BenchmarkTrial/end-to-end
// configuration (1094 instances, 16 processors). The byte cap carries
// ~10% headroom over the measured 1.39 MB/trial; the simulator's
// receive-buffer arrays alone (sim.BufferPeaks, which campaigns do not
// read) would add ~1.1 MB, and deriving the latency-only transfers the
// trial never reads ~0.58 MB. The object cap carries ~15% headroom over
// the measured 3 151 objects/trial; one heap object per block or per
// member (the balancer's blocks before they were stored flat) would add
// over a thousand.
func TestTrialBytesAtPaperScale(t *testing.T) {
	cfg, procs := paperScaleConfig()
	trial := campaign.Trial{Cell: "bytes", Gen: cfg, Procs: procs, Comm: 1}
	run := func() {
		if r, err := campaign.RunTrial(trial); err != nil || r.Outcome != campaign.OutcomeOK {
			t.Fatalf("outcome %q err %v", r.Outcome, err)
		}
	}
	run() // warm-up
	const trials = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range trials {
		run()
	}
	runtime.ReadMemStats(&after)
	const maxBytes = 1_525_000
	if perTrial := (after.TotalAlloc - before.TotalAlloc) / trials; perTrial > maxBytes {
		t.Fatalf("paper-scale trial allocates %d bytes, cap %d — something unread is back on the trial path", perTrial, maxBytes)
	}
	const maxObjects = 3_600
	if perTrial := (after.Mallocs - before.Mallocs) / trials; perTrial > maxObjects {
		t.Fatalf("paper-scale trial allocates %d objects, cap %d — per-item allocations are back on the trial path", perTrial, maxObjects)
	}
}

// BenchmarkTrial measures single-trial cost at paper scale, split by
// stage. The end-to-end case is exactly what one campaign worker runs
// per trial, so its latency bounds every sweep's throughput.
func BenchmarkTrial(b *testing.B) {
	scheduler := func(cfg gen.Config, procs int, schedulable bool) func(b *testing.B) {
		return func(b *testing.B) {
			ts, ar := scaleInput(b, cfg, procs)
			b.ReportMetric(float64(ts.TotalInstances()), "instances")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sched.NewScheduler(ts, ar).Run(); (err == nil) != schedulable {
					b.Fatalf("schedulable %v, got err %v", schedulable, err)
				}
			}
		}
	}
	cfg, procs := paperScaleConfig()
	b.Run("scheduler", scheduler(cfg, procs, true))
	cfg, procs = upperPaperScaleConfig()
	b.Run("scheduler-600x32", scheduler(cfg, procs, true))
	// A heuristic miss: the screen passes the grid point, and all 9
	// passes (8 repair rounds) fail. 5 of the sweep's 80 points are such
	// misses.
	b.Run("scheduler-miss", func(b *testing.B) {
		cfg, procs := heuristicMissConfig()
		ts, ar := scaleInput(b, cfg, procs)
		if _, err := analysis.CheckSchedulability(ts, ar.Procs); err != nil {
			b.Fatalf("the screen refuses the heuristic miss: %v", err)
		}
		scheduler(cfg, procs, false)(b)
	})
	// The screen on a grid point it refuses, which is all the engine
	// spends on 32 of the sweep's 80 points.
	b.Run("screen-unschedulable", func(b *testing.B) {
		cfg, procs := unschedulableConfig()
		ts, ar := scaleInput(b, cfg, procs)
		b.ReportMetric(float64(ts.TotalInstances()), "instances")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := analysis.CheckSchedulability(ts, ar.Procs); err == nil {
				b.Fatal("the screen passes an unschedulable grid point")
			}
		}
	})
	balancer := func(cfg gen.Config, procs int) func(b *testing.B) {
		return func(b *testing.B) {
			ts, ar := scaleInput(b, cfg, procs)
			s, err := sched.NewScheduler(ts, ar).Run()
			if err != nil {
				b.Fatal(err)
			}
			is := sched.FromSchedule(s)
			b.ReportMetric(float64(ts.TotalInstances()), "instances")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (&core.Balancer{}).Run(is); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("balancer", balancer(paperScaleConfig()))
	b.Run("balancer-600x32", balancer(upperPaperScaleConfig()))
	b.Run("end-to-end", func(b *testing.B) {
		cfg, procs := paperScaleConfig()
		trial := campaign.Trial{Cell: "bench", Gen: cfg, Procs: procs, Comm: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r, err := campaign.RunTrial(trial); err != nil || r.Outcome != campaign.OutcomeOK {
				b.Fatalf("outcome %q err %v", r.Outcome, err)
			}
		}
	})
	// The observed variant bounds the telemetry overhead: the gap to
	// end-to-end is the whole price of the per-stage recorders (a few
	// clock reads and atomic adds per trial; budget < 2%).
	b.Run("end-to-end-observed", func(b *testing.B) {
		cfg, procs := paperScaleConfig()
		trial := campaign.Trial{Cell: "bench", Gen: cfg, Procs: procs, Comm: 1}
		rec := obs.NewSet(1).Recorder(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r, err := campaign.RunTrialObserved(trial, rec); err != nil || r.Outcome != campaign.OutcomeOK {
				b.Fatalf("outcome %q err %v", r.Outcome, err)
			}
		}
	})
}

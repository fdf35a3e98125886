package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/campaign"
	"repro/internal/campaign/analyzers"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// layerRow is the part of a trial's row that the layers determine —
// what the layered pipeline below and campaign.RunTrial must agree on.
type layerRow struct {
	Outcome         string
	Gain            model.Time
	MakespanBefore  model.Time
	MakespanAfter   model.Time
	Moves, Blocks   int
	Forced, Relaxed int
	PaperMem, Reuse model.Mem
	Extras          map[string]float64
}

func rowOf(r campaign.TrialResult) layerRow {
	return layerRow{
		Outcome: r.Outcome, Gain: r.Gain, MakespanBefore: r.MakespanBefore, MakespanAfter: r.MakespanAfter,
		Moves: r.Moves, Blocks: r.Blocks, Forced: r.Forced, Relaxed: r.RelaxedLCM,
		PaperMem: r.PaperMem, Reuse: r.ReuseMem, Extras: r.Extras,
	}
}

// trialKit is what the layered pipeline needs beyond the Trial itself:
// the spec-level analyzer and phase sets and the timing mode, which the
// engine keeps in unexported Trial fields.
type trialKit struct {
	set          analyzers.Set
	phases       analyzers.PhaseSet
	ignoreTiming bool
}

func newTrialKit(spec *campaign.Spec) (trialKit, error) {
	set, err := spec.AnalyzerSet()
	if err != nil {
		return trialKit{}, err
	}
	phases, err := spec.PhaseSet()
	if err != nil {
		return trialKit{}, err
	}
	return trialKit{set: set, phases: phases, ignoreTiming: spec.IgnoreTiming}, nil
}

// trialLayers runs one trial through the public functions of each
// layer, in the order campaign.RunTrial composes them, with a span
// around every call (none on a nil tracer), and returns the layer-
// determined part of the row. blocks.Build is called once on its own
// so the block-formation layer is timed apart from the balancer, which
// builds its blocks internally.
func trialLayers(tr *tracer, t campaign.Trial, kit trialKit) (layerRow, *sched.InstSchedule, error) {
	trace := tr.newTrace()
	root := tr.begin("trial", -1, trace)
	defer tr.end(root)
	call := func(name string) int { return tr.begin(name, root, trace) }

	id := call("gen.Generate")
	ts, err := gen.Generate(t.Gen)
	tr.end(id)
	if err != nil {
		return layerRow{Outcome: campaign.OutcomeGenError}, nil, nil
	}
	ar, err := arch.New(t.Procs, t.Comm)
	if err != nil {
		return layerRow{Outcome: campaign.OutcomeArchError}, nil, nil
	}
	id = call("sched.Scheduler.Run")
	s, err := sched.NewScheduler(ts, ar).Run()
	tr.end(id)
	if err != nil {
		tr.count("sched.accepted", 0)
		return layerRow{Outcome: campaign.OutcomeUnschedulable}, nil, nil
	}
	tr.count("sched.accepted", 1)
	is := sched.FromSchedule(s)

	id = call("sim.Runner.Run")
	repBefore, err := (&sim.Runner{}).Run(is)
	tr.end(id)
	if err != nil {
		return layerRow{Outcome: campaign.OutcomeSimError}, nil, nil
	}
	analyzeMS := 0.0
	id = call("analyzers.Set.RunPrefix")
	pre, err := kit.set.RunPrefix(&analyzers.Input{TS: ts, Procs: ar.Procs, Comm: t.Comm})
	analyzeMS += tr.end(id)
	if err != nil {
		return layerRow{}, nil, err
	}
	if kit.phases.ContainsBefore() {
		id = call("analyzers.Set.RunBefore")
		pre, err = kit.set.RunBefore(&analyzers.Input{TS: ts, Procs: ar.Procs, Comm: t.Comm,
			Sched: is, Rep: repBefore, Before: repBefore}, pre)
		analyzeMS += tr.end(id)
		if err != nil {
			return layerRow{}, nil, err
		}
	}

	id = call("blocks.Build")
	nblocks := len(blocks.Build(is))
	tr.end(id)
	tr.count("blocks.count", float64(nblocks))

	bal := core.Balancer{Policy: t.Policy, IgnoreTiming: kit.ignoreTiming,
		RecordCandidates: kit.set.NeedsCandidates()}
	id = call("core.Balancer.Run")
	res, err := bal.Run(is)
	tr.end(id)
	if err != nil {
		return layerRow{Outcome: campaign.OutcomeBalanceError}, nil, nil
	}
	rerun := 0.0
	if res.ConservativePropagation {
		rerun = 1
	}
	tr.count("core.rerun", rerun)
	tr.count("core.forced", float64(res.Forced))
	tr.count("core.moves", float64(len(res.Moves)))
	if len(res.Blocks) != nblocks {
		return layerRow{}, nil, fmt.Errorf("trial %d: blocks.Build made %d blocks, the balancer %d", t.Index, nblocks, len(res.Blocks))
	}

	id = call("sim.Runner.Run")
	repAfter, err := (&sim.Runner{}).Run(res.Schedule)
	tr.end(id)
	if err != nil {
		return layerRow{Outcome: campaign.OutcomeSimError}, nil, nil
	}
	id = call("sim.MinMemoryWithReuse")
	reuse := sim.MinMemoryWithReuse(res.Schedule)
	tr.end(id)

	id = call("analyzers.Set.RunSuffix")
	extras, err := kit.set.RunSuffix(&analyzers.Input{TS: ts, Procs: ar.Procs, Comm: t.Comm,
		Sched: res.Schedule, Rep: repAfter, Balance: res, Before: repBefore, After: repAfter}, pre, kit.phases)
	analyzeMS += tr.end(id)
	if err != nil {
		return layerRow{}, nil, err
	}
	tr.count("analyzers.trial_ms", analyzeMS)

	row := layerRow{Outcome: campaign.OutcomeOK, Gain: res.GainTotal(),
		MakespanBefore: res.MakespanBefore, MakespanAfter: res.MakespanAfter,
		Moves: len(res.Moves), Blocks: len(res.Blocks), Forced: res.Forced, Relaxed: res.RelaxedLCM,
		Extras: extras}
	for i := range reuse.Paper {
		row.PaperMem += reuse.Paper[i]
		row.Reuse += reuse.Reuse[i]
	}
	return row, res.Schedule, nil
}

// checkRow is the differential trial oracle: the engine's row for a
// trial must agree with an independent layer-by-layer run of it, and an
// accepted trial must satisfy the paper's invariants (non-negative
// Gtotal, balanced makespan no longer than the initial one).
func checkRow(got campaign.TrialResult, want layerRow) error {
	if g := rowOf(got); !reflect.DeepEqual(g, want) {
		return fmt.Errorf("trial %d (%s seed %d): engine row %+v, layer-by-layer %+v", got.Index, got.Cell, got.Seed, g, want)
	}
	if got.Outcome == campaign.OutcomeOK && (got.Gain < 0 || got.MakespanAfter > got.MakespanBefore) {
		return fmt.Errorf("trial %d: Gtotal %d, makespan %d → %d breaks the balancing invariants", got.Index, got.Gain, got.MakespanBefore, got.MakespanAfter)
	}
	return nil
}

// sampleTrials picks n trials of the enumeration with a seeded RNG; the
// same seed picks the same trials, so counts over the sample repeat
// exactly.
func sampleTrials(trials []campaign.Trial, n int, seed int64) []campaign.Trial {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	idx := rng.Perm(len(trials))
	if n < len(idx) {
		idx = idx[:n]
	}
	out := make([]campaign.Trial, len(idx))
	for i, j := range idx {
		out[i] = trials[j]
	}
	return out
}

// traceTrials runs the per-layer part of a traced run over a trial
// sample:
//
//   - each trial runs once untraced and once traced through the layered
//     pipeline (alternating which goes first), so the pair's time
//     difference is the span-recording overhead;
//   - then campaign.RunTrial runs on each once timed and once between
//     runtime.ReadMemStats calls (trialAllocs);
//   - every row is checked against the layered pipeline (checkRow) and,
//     when the engine already produced it, against the engine's row.
//
// It returns the pipeline time untraced and traced, in milliseconds,
// and the number of trials that failed a check.
func traceTrials(tr *tracer, trials []campaign.Trial, kit trialKit, engineRows map[int]campaign.TrialResult) (plain, traced float64, failed int, err error) {
	for i, t := range trials {
		var want layerRow
		for pass := 0; pass < 2; pass++ {
			withSpans := (pass+i)%2 == 1
			var use *tracer
			if withSpans {
				use = tr
			}
			t0 := time.Now()
			row, _, err := trialLayers(use, t, kit)
			d := ms(time.Since(t0))
			if err != nil {
				return 0, 0, 0, err
			}
			if withSpans {
				traced += d
			} else {
				plain += d
			}
			want = row
		}

		trace := tr.newTrace()
		id := tr.begin("campaign.RunTrial", -1, trace)
		got, err := campaign.RunTrial(t)
		tr.end(id)
		if err != nil {
			return 0, 0, 0, err
		}
		mallocs, bytes, err := trialAllocs(t)
		if err != nil {
			return 0, 0, 0, err
		}
		tr.count("campaign.allocs", float64(mallocs))
		tr.count("campaign.alloc_kb", float64(bytes)/1024)
		if err := checkRow(got, want); err != nil {
			fmt.Printf("check failed: %v\n", err)
			failed++
			continue
		}
		if eng, ok := engineRows[t.Index]; ok && !reflect.DeepEqual(eng, got) {
			fmt.Printf("check failed: trial %d: engine row differs from campaign.RunTrial\n", t.Index)
			failed++
		}
	}
	return plain, traced, failed, nil
}

// checkHeldOut is the output check for inputs that have no committed
// reference: each trial runs through campaign.RunTrial and through the
// layered pipeline (untraced), the rows must agree and satisfy the
// invariants (checkRow), and the balanced schedule must pass the
// model's full constraint check (sched.InstSchedule.Validate). It
// returns how many trials failed.
func checkHeldOut(trials []campaign.Trial, kit trialKit) (failed int, err error) {
	for _, t := range trials {
		want, balanced, err := trialLayers(nil, t, kit)
		if err != nil {
			return 0, err
		}
		got, err := campaign.RunTrial(t)
		if err != nil {
			return 0, err
		}
		if err := checkRow(got, want); err != nil {
			fmt.Printf("check failed: %v\n", err)
			failed++
			continue
		}
		if balanced != nil {
			if errs := balanced.Validate(); len(errs) > 0 {
				fmt.Printf("check failed: trial %d: balanced schedule invalid: %v\n", t.Index, errs[0])
				failed++
			}
		}
	}
	return failed, nil
}

// trialAllocs counts the heap allocations of one campaign.RunTrial
// call. Nothing else runs meanwhile, and the collector is paused after
// a forced collection, so sync.Pool contents cannot vanish mid-trial
// and the count does not depend on when a collection happens to run.
func trialAllocs(t campaign.Trial) (mallocs, bytes uint64, err error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = campaign.RunTrial(t)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

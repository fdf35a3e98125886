package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/campaign/analyzers"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Trial outcomes. A trial that fails before producing a balanced,
// simulated schedule is rejected with the stage that refused it; only
// OutcomeOK trials feed the metric aggregators. The acceptance ratio is
// itself a published quantity (random instances are not always
// schedulable on the given architecture).
const (
	OutcomeOK            = "ok"
	OutcomeGenError      = "gen-error"
	OutcomeArchError     = "arch-error"
	OutcomeUnschedulable = "unschedulable"
	OutcomeBalanceError  = "balance-error"
	OutcomeSimError      = "sim-error"
)

// ErrInterrupted is returned by Engine.Run when the Stop channel closed
// before every trial completed. The run drained cleanly: no trial was
// abandoned mid-flight, every finished trial reached the sink (and so
// the journal), and the sweep is resumable from that journal. Callers
// distinguish it from real failures with errors.Is.
var ErrInterrupted = errors.New("campaign: run interrupted")

// TrialResult is the analyzable outcome of one pipeline run. The
// metric fields are emitted unconditionally — a measured zero (Gain=0
// is common) must stay distinguishable from "not measured"; consumers
// use Outcome, not field presence, to tell accepted trials apart.
type TrialResult struct {
	Index   int    `json:"index"`
	Cell    string `json:"cell"`
	Seed    int64  `json:"seed"`
	Outcome string `json:"outcome"`

	Gain           model.Time `json:"gain"`
	MakespanBefore model.Time `json:"makespan_before"`
	MakespanAfter  model.Time `json:"makespan_after"`
	MaxMemBefore   model.Mem  `json:"max_mem_before"`
	MaxMemAfter    model.Mem  `json:"max_mem_after"`
	MemImbalBefore float64    `json:"mem_imbal_before"`
	MemImbalAfter  float64    `json:"mem_imbal_after"`
	LoadImbalAfter float64    `json:"load_imbal_after"`
	IdleBefore     float64    `json:"idle_before"`
	IdleAfter      float64    `json:"idle_after"`

	// Reuse-vs-paper memory accounting (internal/sim/reuse.go), totalled
	// across processors on the balanced schedule.
	PaperMem     model.Mem `json:"paper_mem"`
	ReuseMem     model.Mem `json:"reuse_mem"`
	ReuseSavings float64   `json:"reuse_savings"`

	Moves      int `json:"moves"`
	Blocks     int `json:"blocks"`
	Forced     int `json:"forced"`
	RelaxedLCM int `json:"relaxed_lcm"`

	// Extras is the namespaced analyzer payload of an accepted trial
	// (see internal/campaign/analyzers): one entry per key of every
	// analyzer named by the spec — and, when the spec enables the
	// before phase, the before.<ns>.* and delta.<ns>.* siblings of
	// every phase-sensitive key — nil when the spec names no analyzers
	// or the trial was rejected. Keys carry their analyzer's namespace
	// ("schedulability.util_margin"), so they never collide with the
	// headline metric names, and the whole map folds through the same
	// ordered aggregators into the artifacts.
	Extras map[string]float64 `json:"extras,omitempty"`
}

// metrics returns the aggregated quantities of an accepted trial,
// keyed by the names that appear in artifacts.
func (r TrialResult) metrics() map[string]float64 {
	if r.Outcome != OutcomeOK {
		return nil
	}
	m := map[string]float64{
		"gain":             float64(r.Gain),
		"makespan_before":  float64(r.MakespanBefore),
		"makespan_after":   float64(r.MakespanAfter),
		"max_mem_before":   float64(r.MaxMemBefore),
		"max_mem_after":    float64(r.MaxMemAfter),
		"mem_imbal_before": r.MemImbalBefore,
		"mem_imbal_after":  r.MemImbalAfter,
		"load_imbal_after": r.LoadImbalAfter,
		"idle_before":      r.IdleBefore,
		"idle_after":       r.IdleAfter,
		"paper_mem":        float64(r.PaperMem),
		"reuse_mem":        float64(r.ReuseMem),
		"reuse_savings":    r.ReuseSavings,
		"moves":            float64(r.Moves),
		"blocks":           float64(r.Blocks),
		"forced":           float64(r.Forced),
		"relaxed_lcm":      float64(r.RelaxedLCM),
	}
	for k, v := range r.Extras {
		m[k] = v
	}
	return m
}

// Engine runs campaigns over a fixed-size worker pool. A worker claims
// every pending trial of one (generator config, processors, comm time)
// point at once and shares their prefix and balancing walks (memo.go);
// the artifacts are byte-identical to folding every trial run alone
// through RunTrial, which TestMemoDeterminism pins.
type Engine struct {
	// Workers is the pool size; ≤ 0 means GOMAXPROCS.
	Workers int

	// Sink, when non-nil, receives every live-completed trial the moment
	// it finishes — in completion order, not index order, and possibly
	// from several workers at once (the sink must be safe for concurrent
	// use). Replayed Done rows are never re-emitted. A sink error aborts
	// the sweep: workers stop claiming trials and Run returns the first
	// error, so a failing journal never silently degrades to an
	// unjournaled run.
	Sink func(TrialResult) error

	// Done holds already-completed rows (typically recovered from a
	// journal). Their trials are not re-run; the rows are folded into
	// the result in index order alongside the live ones, so a resumed
	// run produces byte-identical artifacts to an uninterrupted one.
	// Rows must belong to the [Lo,Hi) range and match the spec's
	// enumeration (index/cell/seed agreement is validated).
	Done []TrialResult

	// Stop, when non-nil, is the drain signal: once it closes, workers
	// stop claiming new trials, in-flight trials run to completion (and
	// reach the Sink, so a journaling run loses nothing), and Run
	// returns ErrInterrupted instead of a Result. This is the seam the
	// CLIs hang SIGINT/SIGTERM handling on and the worker serve mode
	// uses for job cancellation.
	Stop <-chan struct{}

	// Lo and Hi restrict the run to the half-open trial-index range
	// [Lo,Hi) of the spec's enumeration — the multi-host sharding hook.
	// Hi = 0 means "through the last trial". The default zero values
	// run the whole grid.
	Lo, Hi int

	// Obs, when non-nil, receives run telemetry: per-stage latency
	// observations on each worker's own recorder, trial outcome and
	// memo-cache counters, and one throughput-timeline tick per live
	// trial. Telemetry is strictly outside the byte-identity contract —
	// the Result (and the artifacts folded from it) is bit-identical
	// with Obs attached or nil, pinned by checkDeterminism — and the
	// recorders are lock-free, so attaching it costs a few clock reads
	// and atomic adds per trial.
	Obs *obs.Set
}

// Run executes every trial of the spec (minus replayed Done rows,
// within [Lo,Hi)) and returns the deterministic result. The spec is
// normalised in place.
func (e *Engine) Run(spec *Spec) (*Result, error) {
	trials, err := spec.Trials()
	if err != nil {
		return nil, err
	}
	lo, hi := e.Lo, e.Hi
	if hi == 0 {
		hi = len(trials)
	}
	if lo < 0 || hi > len(trials) || lo >= hi {
		return nil, fmt.Errorf("campaign: shard range [%d,%d) outside trial range [0,%d)", lo, hi, len(trials))
	}
	shard := trials[lo:hi]
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	set, err := spec.AnalyzerSet()
	if err != nil {
		return nil, err
	}
	phases, err := spec.PhaseSet()
	if err != nil {
		return nil, err
	}
	expectedExtras := set.PhasedKeys(phases)

	// Seat the replayed rows and work out what is still pending.
	results := make([]TrialResult, len(shard))
	replayed := make([]bool, len(shard))
	for _, r := range e.Done {
		if err := matchTrial(trials, lo, hi, r); err != nil {
			return nil, err
		}
		if err := matchExtras(expectedExtras, r); err != nil {
			return nil, err
		}
		if replayed[r.Index-lo] {
			return nil, fmt.Errorf("campaign: duplicate completed row for trial %d", r.Index)
		}
		results[r.Index-lo] = r
		replayed[r.Index-lo] = true
	}
	pending := make([]Trial, 0, len(shard)-len(e.Done))
	for i, t := range shard {
		if !replayed[i] {
			pending = append(pending, t)
		}
	}

	// Prefix groups are formed over the pending trials only: a replayed
	// row needs no prefix.
	groups := prefixGroups(pending)

	coll := newCollector(cellOrder(shard))
	for i := range results {
		if replayed[i] {
			coll.observe(results[i])
		}
	}

	var (
		aborted atomic.Bool
		errOnce sync.Once
		runErr  error
	)
	// fail records the first error and stops further trials from being
	// claimed; the errors name the trial, not the Map fan-out index —
	// with Done replay rows the two disagree, and the trial index is
	// what -resume diagnostics need.
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
		aborted.Store(true)
	}
	e.Obs.Aux().Add(obs.CounterReplayedTrials, int64(len(e.Done)))
	start := time.Now()
	var interrupted atomic.Bool
	// A worker claims a whole prefix group and runs its trials in order;
	// the abort and drain checks still come before every trial.
	live := mapWorkers(len(groups), workers, func(w, g int) []TrialResult {
		rec := e.Obs.Recorder(w)
		out := make([]TrialResult, 0, len(groups[g]))
		var pre *trialPrefix
		for _, t := range groups[g] {
			if aborted.Load() {
				break
			}
			if e.Stop != nil {
				select {
				case <-e.Stop:
					interrupted.Store(true)
					return out
				default:
				}
			}
			if pre == nil {
				pre = runPrefix(groups[g], rec)
				rec.Add(obs.CounterMemoMiss, 1)
			} else {
				rec.Add(obs.CounterMemoHit, 1)
			}
			r, err := pre.finish(t, rec)
			if err != nil {
				// An analyzer produced an invalid (non-finite) extra: abort
				// the sweep now, while the message can still name the trial,
				// instead of letting the value poison the artifact encoding
				// after every other trial has run.
				fail(fmt.Errorf("trial %d: %w", t.Index, err))
				break
			}
			if r.Outcome == OutcomeOK {
				rec.Add(obs.CounterTrialsAccepted, 1)
			} else {
				rec.Add(obs.CounterTrialsRejected, 1)
				if pre.screened {
					rec.Add(obs.CounterTrialsScreened, 1)
				}
			}
			coll.observe(r)
			if e.Sink != nil {
				t0 := rec.Clock()
				err := e.Sink(r)
				rec.Stamp(obs.StageSinkWait, t0)
				if err != nil {
					fail(fmt.Errorf("sink: trial %d: %w", r.Index, err))
				}
			}
			e.Obs.Tick()
			out = append(out, r)
		}
		return out
	})
	if runErr != nil {
		return nil, fmt.Errorf("campaign: %w", runErr)
	}
	if interrupted.Load() {
		return nil, ErrInterrupted
	}
	for _, rs := range live {
		for _, r := range rs {
			results[r.Index-lo] = r
		}
	}
	foldRec := e.Obs.Aux()
	t0 := foldRec.Clock()
	cells := coll.finalize()
	foldRec.Stamp(obs.StageFold, t0)
	return &Result{
		Spec:    *spec,
		Cells:   cells,
		Trials:  results,
		Workers: workers,
		Elapsed: time.Since(start),
	}, nil
}

// matchTrial checks that row r names a real trial of the enumeration,
// inside [lo,hi), and agrees with it on cell and seed — the cheap
// beyond-the-hash guard against folding a journal row into the wrong
// spec.
func matchTrial(trials []Trial, lo, hi int, r TrialResult) error {
	if r.Index < lo || r.Index >= hi {
		return fmt.Errorf("campaign: completed row index %d outside shard range [%d,%d)", r.Index, lo, hi)
	}
	t := trials[r.Index]
	if r.Cell != t.Cell || r.Seed != t.Gen.Seed {
		return fmt.Errorf("campaign: completed row %d (cell %q, seed %d) does not match spec enumeration (cell %q, seed %d)",
			r.Index, r.Cell, r.Seed, t.Cell, t.Gen.Seed)
	}
	return nil
}

// matchExtras checks that a replayed row's extras payload is exactly
// what the spec's analyzer and phase sets would have produced: every
// expected key present on an accepted row, nothing on a rejected one,
// and no strays either way. A mismatch means the row was produced
// under a different analyzer set or phase set (or tampered with) —
// folding it would publish artifacts whose extras columns silently
// cover only part of the sweep.
func matchExtras(expected []string, r TrialResult) error {
	if r.Outcome != OutcomeOK {
		if len(r.Extras) != 0 {
			return fmt.Errorf("campaign: completed row %d was rejected (%s) but carries %d extras", r.Index, r.Outcome, len(r.Extras))
		}
		return nil
	}
	for _, k := range expected {
		if _, ok := r.Extras[k]; !ok {
			return fmt.Errorf("campaign: completed row %d is missing extra %q — journaled under a different analyzer set or phase set?", r.Index, k)
		}
	}
	if len(r.Extras) != len(expected) {
		return fmt.Errorf("campaign: completed row %d carries %d extras, the spec's analyzers produce %d — journaled under a different analyzer set or phase set?",
			r.Index, len(r.Extras), len(expected))
	}
	return nil
}

// trialPrefix is the policy-independent front of the pipeline: the
// generated system screened, scheduled by the greedy substrate and
// simulated once, plus the policy-independent extras — the prefix-only
// analyzer values and, with the before phase enabled, the before.*
// values of the phase-sensitive analyzers over the initial schedule
// (computed here so the policy cells sharing a prefix share one screen
// and one before-phase pass). A nil schedule carries the failure
// outcome instead, and screened says the necessary-condition screen
// proved it; err carries an analyzer validation failure, which aborts
// the sweep rather than rejecting the trial.
//
// cells lists the trial indexes of the group's cells and pols their
// policies. The first cell to balance balances them all in one
// core.Balancer.RunPolicies call: results[i] is cell i's balance until
// the cell consumes it, nil after; balErr is the balancer's error,
// which every cell reports. Both are unset until then.
type trialPrefix struct {
	is        *sched.InstSchedule
	repBefore *sim.Report
	preExtras map[string]float64 // read-only once published
	outcome   string             // "" when the prefix succeeded
	screened  bool               // the screen refused the system: no schedule exists
	err       error              // non-finite analyzer extra in the prefix phases

	cells   []int
	pols    []core.Policy
	results []*core.Result
	balErr  error
}

// runPrefix computes generate → screen → schedule → simulate(before)
// for the trials of group, which share one prefix, plus the prefix-only
// and before-phase analyzer extras. The screen
// (analysis.CheckSchedulability) refuses a system no schedule can meet
// before the scheduler spends its repair rounds on it: the scheduler
// would refuse it too, so the outcome is the same. Its report goes to
// the prefix analyzers. Nothing in the prefix depends on a trial's
// Policy (or the ignore-timing mode, which only reaches the balancer),
// which is what makes the result shareable across policy cells — the
// before phase instruments the initial schedule, which every policy cell
// of a grid point shares.
//
// rec, when non-nil, receives one latency observation per stage the
// prefix reached (a rejected trial stops observing at the stage that
// refused it). With prefix sharing they are observed once per grid
// point.
func runPrefix(group []Trial, rec *obs.Recorder) *trialPrefix {
	t := group[0]
	t0 := rec.Clock()
	ts, err := gen.Generate(t.Gen)
	t0 = rec.Stamp(obs.StageGenerate, t0)
	if err != nil {
		return &trialPrefix{outcome: OutcomeGenError}
	}
	ar, err := arch.New(t.Procs, t.Comm)
	if err != nil {
		return &trialPrefix{outcome: OutcomeArchError}
	}
	screen, err := analysis.CheckSchedulability(ts, ar.Procs)
	if err != nil {
		rec.Stamp(obs.StageSchedule, t0)
		return &trialPrefix{outcome: OutcomeUnschedulable, screened: true}
	}
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		rec.Stamp(obs.StageSchedule, t0)
		return &trialPrefix{outcome: OutcomeUnschedulable}
	}
	is := sched.FromSchedule(s)
	t0 = rec.Stamp(obs.StageSchedule, t0)

	repBefore, err := (&sim.Runner{}).Run(is)
	if err != nil {
		rec.Stamp(obs.StageSimulate, t0)
		return &trialPrefix{outcome: OutcomeSimError}
	}
	t0 = rec.Stamp(obs.StageSimulate, t0)
	pre, err := t.analyzers.RunPrefix(&analyzers.Input{TS: ts, Procs: ar.Procs, Comm: t.Comm, Screen: screen})
	if err != nil {
		return &trialPrefix{err: err}
	}
	if t.phases.ContainsBefore() {
		pre, err = t.analyzers.RunBefore(&analyzers.Input{
			TS:    ts,
			Procs: ar.Procs,
			Comm:  t.Comm,

			Sched:  is,
			Rep:    repBefore,
			Before: repBefore,
		}, pre)
		if err != nil {
			return &trialPrefix{err: err}
		}
	}
	rec.Stamp(obs.StageAnalyzeBefore, t0)
	out := &trialPrefix{is: is, repBefore: repBefore, preExtras: pre}
	for _, t := range group {
		out.cells = append(out.cells, t.Index)
		out.pols = append(out.pols, t.Policy)
	}
	return out
}

// finish runs trial t's policy-specific suffix (balance →
// simulate(after) → analyze) from the prefix, or returns the prefix's
// rejection or analyzer error. The policy-independent analyzer values —
// prefix-only and before-phase — are shared read-only by every cell of
// the prefix. The first cell's balance stage builds the balancer's plan
// and balances every cell of the group in shared walks; each cell then
// takes its own result, and the prefix drops it. rec, when non-nil,
// receives the suffix stage latencies.
func (pre *trialPrefix) finish(t Trial, rec *obs.Recorder) (TrialResult, error) {
	if pre.err != nil {
		return TrialResult{}, pre.err
	}
	r := TrialResult{Index: t.Index, Cell: t.Cell, Seed: t.Gen.Seed}
	if pre.outcome != "" {
		r.Outcome = pre.outcome
		return r, nil
	}
	is, repBefore := pre.is, pre.repBefore

	t0 := rec.Clock()
	if pre.results == nil && pre.balErr == nil {
		// Candidate recording costs allocations on the balancer's
		// innermost loop, so it is on only when an active analyzer
		// consumes the trace. Both settings are spec-wide, so every cell
		// of the group shares them.
		bal := core.Balancer{IgnoreTiming: t.ignoreTiming, RecordCandidates: t.analyzers.NeedsCandidates()}
		pre.results, pre.balErr = bal.RunPolicies(core.NewPlan(is), pre.pols)
		for _, res := range pre.results {
			rec.Add(obs.CounterBalancePlacements, int64(res.Placements))
		}
	}
	var res *core.Result
	if pre.balErr == nil {
		i := slices.Index(pre.cells, t.Index)
		res, pre.results[i] = pre.results[i], nil
	}
	t0 = rec.Stamp(obs.StageBalance, t0)
	if res == nil {
		r.Outcome = OutcomeBalanceError
		return r, nil
	}

	repAfter, err := (&sim.Runner{}).Run(res.Schedule)
	t0 = rec.Stamp(obs.StageSimulate, t0)
	if err != nil {
		r.Outcome = OutcomeSimError
		return r, nil
	}
	reuse := sim.MinMemoryWithReuse(res.Schedule)

	before := summarize(res.MakespanBefore, res.MemBefore, repBefore)
	after := summarize(res.MakespanAfter, res.MemAfter, repAfter)

	r.Outcome = OutcomeOK
	r.Gain = res.GainTotal()
	r.MakespanBefore = before.Makespan
	r.MakespanAfter = after.Makespan
	r.MaxMemBefore = before.MaxMem
	r.MaxMemAfter = after.MaxMem
	// The imbalance ratios are ≥ 1 when meaningful; 0 is the metrics
	// package's degenerate-vector sentinel (all-zero memory or load).
	// Accepted trials always place memory and busy time somewhere, so
	// the sentinel never reaches the artifact aggregates — but readers
	// of raw trial rows must not treat 0 as "better than 1".
	r.MemImbalBefore = before.MemImbal
	r.MemImbalAfter = after.MemImbal
	r.LoadImbalAfter = after.LoadImbal
	r.IdleBefore = before.IdleRatio
	r.IdleAfter = after.IdleRatio
	for i := range reuse.Paper {
		r.PaperMem += reuse.Paper[i]
		r.ReuseMem += reuse.Reuse[i]
	}
	r.ReuseSavings = reuse.Savings()
	r.Moves = len(res.Moves)
	r.Blocks = len(res.Blocks)
	r.Forced = res.Forced
	r.RelaxedLCM = res.RelaxedLCM
	r.Extras, err = t.analyzers.RunSuffix(&analyzers.Input{
		TS:    is.TS,
		Procs: is.Arch.Procs,
		Comm:  t.Comm,

		Sched: res.Schedule,
		Rep:   repAfter,
		Reuse: reuse,

		Balance: res,
		Before:  repBefore,
		After:   repAfter,
	}, pre.preExtras, t.phases)
	rec.Stamp(obs.StageAnalyzeAfter, t0)
	if err != nil {
		return TrialResult{}, err
	}
	return r, nil
}

// RunTrial executes the full pipeline for one trial, sharing nothing
// with other trials. It touches no state outside the trial, so any number of
// calls may run concurrently. A non-nil error means an analyzer
// produced an invalid extra (the sweep should abort), never a rejected
// trial — rejections are outcomes on the result.
func RunTrial(t Trial) (TrialResult, error) {
	return runTrial(t, nil)
}

// RunTrialObserved is RunTrial with per-stage latency telemetry
// recorded into rec (nil behaves exactly like RunTrial). The recorder
// never influences the result — it is the single-trial entry point for
// benchmarking recorder overhead and for callers embedding the
// pipeline outside the engine.
func RunTrialObserved(t Trial, rec *obs.Recorder) (TrialResult, error) {
	return runTrial(t, rec)
}

// runTrial is the recorder-threaded implementation shared by the
// exported entry points.
func runTrial(t Trial, rec *obs.Recorder) (TrialResult, error) {
	return runPrefix([]Trial{t}, rec).finish(t, rec)
}

// summarize assembles the metrics.Summary for one distribution.
func summarize(makespan model.Time, mem []model.Mem, rep *sim.Report) metrics.Summary {
	load := make([]model.Time, len(rep.Procs))
	for i := range rep.Procs {
		load[i] = rep.Procs[i].Busy
	}
	return metrics.Collect(makespan, mem, load, rep.IdleRatio)
}

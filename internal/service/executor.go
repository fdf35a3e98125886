package service

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/obs"
)

// ExecRequest is one campaign execution order from the daemon to its
// Executor. The daemon owns admission, state transitions, SSE, and
// artifact rendering; the executor owns how trials actually run and
// where their durable scratch lives.
type ExecRequest struct {
	// ID is the campaign's spec hash — the name of its durable scratch.
	ID string
	// Spec is the normalised campaign to run.
	Spec *campaign.Spec
	// OnResume is called exactly once, before live execution starts,
	// with every trial row recovered from the executor's durable scratch
	// (the local journal replay, or shard journals a previous fleet run
	// already landed). May be empty, never nil.
	OnResume func(done []campaign.TrialResult)
	// Sink receives every live trial row after the executor appended it
	// to its durable scratch (the local journal, or a landed shard
	// journal). Calls may be concurrent — LocalExecutor makes them from
	// every engine worker at once — so Sink must be safe for concurrent
	// use.
	Sink func(r campaign.TrialResult) error
	// Obs is the campaign's local telemetry set (fleet telemetry rides
	// the workers' status polls and is surfaced separately).
	Obs *obs.Set
	// Stop, when closed, drains the run: the executor stops issuing
	// work, syncs its scratch, and returns campaign.ErrInterrupted.
	Stop <-chan struct{}
	// Logf receives the executor's event log (never nil).
	Logf func(format string, args ...any)
}

// Executor runs admitted campaigns. Implementations must return
// campaign.ErrInterrupted when Stop drained the run with the scratch
// synced (the daemon then re-queues instead of failing), a result whose
// artifacts are byte-identical across executors otherwise.
type Executor interface {
	Execute(req ExecRequest) (*campaign.Result, error)
	// Cleanup removes campaign id's durable scratch once its artifacts
	// are safely in the store.
	Cleanup(id string) error
}

// LocalExecutor is the in-process engine path: one resumable journal
// per campaign under Dir, the deterministic worker-pool engine on top.
// This is the daemon's default executor.
type LocalExecutor struct {
	// Dir holds the per-campaign trial journals (required).
	Dir string
	// Workers is the engine pool size per campaign (≤ 0 = GOMAXPROCS).
	Workers int
}

// journalPath is where campaign id journals while running.
func (e *LocalExecutor) journalPath(id string) string {
	return filepath.Join(e.Dir, id+".jsonl")
}

// Execute implements Executor: resume the campaign's journal if a
// previous daemon left one, create it otherwise, and run the engine as
// the journal's run (journal.Writer.Run), which appends each live trial
// before req.Sink sees it.
func (e *LocalExecutor) Execute(req ExecRequest) (*campaign.Result, error) {
	hdr, err := journal.NewHeader(req.Spec, 0, 1)
	if err != nil {
		return nil, err
	}
	// Resume starts a fresh journal when none survives on disk.
	w, done, err := journal.Resume(e.journalPath(req.ID), hdr, req.Obs.Aux())
	if err != nil {
		return nil, err
	}
	req.OnResume(done)
	return w.Run(&campaign.Engine{Workers: e.Workers, Obs: req.Obs, Stop: req.Stop, Sink: req.Sink}, req.Spec)
}

// Cleanup implements Executor: the merged journal is scratch once the
// artifacts landed.
func (e *LocalExecutor) Cleanup(id string) error {
	if err := os.Remove(e.journalPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// capWorkers resolves the per-campaign engine pool so that runs
// concurrent campaigns cannot oversubscribe the host: each engine
// worker is CPU-bound, so MaxRuns × Workers beyond GOMAXPROCS only
// adds scheduler thrash. With workers ≤ 0 (the "use the machine"
// default) the cores are divided across the runners; an explicit
// oversubscribing request is capped unless allow is set, and either
// way the decision is logged loudly.
func capWorkers(workers, runs int, allow bool, logf func(format string, args ...any)) int {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	if runs <= 1 || workers*runs <= procs {
		return workers
	}
	if allow {
		logf("WARNING: %d concurrent runs × %d engine workers = %d CPU-bound workers on %d cores — oversubscription allowed by config",
			runs, workers, workers*runs, procs)
		return workers
	}
	capped := procs / runs
	if capped < 1 {
		capped = 1
	}
	logf("WARNING: %d concurrent runs × %d engine workers would oversubscribe %d cores; capping each campaign to %d workers (-oversubscribe overrides)",
		runs, workers, procs, capped)
	return capped
}

package campaign

import (
	"testing"

	"repro/internal/obs"
)

// TestEngineObsCounters checks the engine populates the telemetry it
// promises: every live trial is counted exactly once as accepted or
// rejected, the memoised sweep records one miss per grid point and a
// hit for every clone, every pipeline stage that must run has samples,
// and the trial count matches the per-stage observation counts.
func TestEngineObsCounters(t *testing.T) {
	spec := smokeSpec()
	set := obs.NewSet(2)
	res, err := (&Engine{Workers: 2, Obs: set}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := set.Snapshot()
	trials := int64(len(res.Trials))

	if got := snap.Counters["trials_accepted"] + snap.Counters["trials_rejected"]; got != trials {
		t.Fatalf("accepted+rejected = %d, want every live trial once (%d)", got, trials)
	}
	// smokeSpec: 2 grid points (procs) × 2 policies × 6 seeds — one miss
	// per (grid point, seed), one hit per extra policy.
	if m := snap.Counters["memo_misses"]; m != 12 {
		t.Fatalf("memo misses = %d, want 12 (one per grid point × seed)", m)
	}
	if h := snap.Counters["memo_hits"]; h != 12 {
		t.Fatalf("memo hits = %d, want 12 (one per cloned policy cell)", h)
	}
	// Generate and schedule run once per prefix; the balancer suffix
	// runs on every schedulable trial.
	if c := snap.Stages["generate"].Count; c != 12 {
		t.Fatalf("generate count = %d, want one per prefix (12)", c)
	}
	if c := snap.Stages["balance"].Count; c == 0 || c > trials {
		t.Fatalf("balance count = %d, want within (0,%d]", c, trials)
	}
	// The fold is observed exactly once, on the aux recorder.
	if c := snap.Stages["fold"].Count; c != 1 {
		t.Fatalf("fold count = %d, want 1", c)
	}
	// No journal is attached, so its telemetry must stay silent.
	for _, key := range []string{"journal_records", "journal_bytes", "journal_fsyncs"} {
		if v := snap.Counters[key]; v != 0 {
			t.Fatalf("%s = %d without a journal, want 0", key, v)
		}
	}
	if c := snap.Stages["sink_wait"].Count; c != 0 {
		t.Fatalf("sink_wait count = %d without a sink, want 0", c)
	}

	// The timeline saw every live trial.
	var ticks int64
	for _, n := range snap.Timeline.Counts {
		ticks += n
	}
	if ticks != trials {
		t.Fatalf("timeline ticks = %d, want %d", ticks, trials)
	}
}

// TestEngineObsBalancePlacements checks the balance_placements counter:
// run alone (RunTrialObserved), every balanced trial walks each of its
// blocks at least once; sharing a prefix group's walks never costs more
// than that.
func TestEngineObsBalancePlacements(t *testing.T) {
	spec := smokeSpec()
	spec.Policies = []string{"lexicographic", "ratio", "memory-only"}
	set := obs.NewSet(1)
	res, err := (&Engine{Workers: 1, Obs: set}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	shared := set.Snapshot().Counters["balance_placements"]
	trials, err := spec.Trials()
	if err != nil {
		t.Fatal(err)
	}
	alone := obs.NewSet(1)
	var blocks int64
	for i, tr := range trials {
		if _, err := RunTrialObserved(tr, alone.Recorder(0)); err != nil {
			t.Fatal(err)
		}
		blocks += int64(res.Trials[i].Blocks)
	}
	single := alone.Snapshot().Counters["balance_placements"]
	if single < blocks || shared == 0 || shared > single {
		t.Fatalf("balance_placements: %d per trial, %d shared, for %d blocks over the accepted trials",
			single, shared, blocks)
	}
}

// TestEngineObsReplayed: resumed (Done) rows are counted as replayed
// and are not re-observed by any pipeline stage.
func TestEngineObsReplayed(t *testing.T) {
	full, err := Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	half := append([]TrialResult(nil), full.Trials[:len(full.Trials)/2]...)
	set := obs.NewSet(1)
	res, err := (&Engine{Workers: 1, Done: half, Obs: set}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	snap := set.Snapshot()
	if got := snap.Counters["replayed_trials"]; got != int64(len(half)) {
		t.Fatalf("replayed_trials = %d, want %d", got, len(half))
	}
	live := int64(len(res.Trials) - len(half))
	if got := snap.Counters["trials_accepted"] + snap.Counters["trials_rejected"]; got != live {
		t.Fatalf("live outcome counts = %d, want only the %d non-replayed trials", got, live)
	}
}

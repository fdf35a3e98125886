package campaign

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sched"
)

// TestScreenSoundPaperPhase runs the prefix's necessary-condition screen
// on every grid point of the published paper-phase sweep: each system
// it refuses must be one the scheduler refuses too, and the refusals
// are pinned — 32 of the 80 grid points, 96 of the 240 trials, ask for
// more than M·H of busy time per hyper-period.
func TestScreenSoundPaperPhase(t *testing.T) {
	trials, err := publishedSpec(t, filepath.Join(publishedDir, "paper-phase.json")).Trials()
	if err != nil {
		t.Fatal(err)
	}
	groups := prefixGroups(trials)
	points, screened := 0, 0
	for _, g := range groups {
		ts, err := gen.Generate(g[0].Gen)
		if err != nil {
			t.Fatal(err)
		}
		ar := arch.MustNew(g[0].Procs, g[0].Comm)
		if _, err := analysis.CheckSchedulability(ts, ar.Procs); err == nil {
			continue
		}
		points++
		screened += len(g)
		if _, err := sched.NewScheduler(ts, ar).Run(); err == nil {
			t.Errorf("trial %d (%s): screened, but the scheduler places it", g[0].Index, g[0].Cell)
		}
	}
	if len(groups) != 80 || points != 32 || screened != 96 {
		t.Fatalf("screened %d of %d grid points (%d trials), want 32 of 80 (96 trials)", points, len(groups), screened)
	}
}

// TestEngineObsTrialsScreened checks the trials_screened counter: on
// 16 tasks of ΣE/T ≈ 2 every trial on one processor is screened, and
// none on four.
func TestEngineObsTrialsScreened(t *testing.T) {
	for _, tc := range []struct {
		procs    int
		screened int64
	}{{1, 8}, {4, 0}} {
		spec := &Spec{Name: "screen", Seeds: 4, Tasks: []int{16}, Utilization: []float64{2},
			Procs: []int{tc.procs}, Policies: []string{"lexicographic", "memory-only"}}
		set := obs.NewSet(1)
		res, err := (&Engine{Workers: 1, Obs: set}).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		c := set.Snapshot().Counters
		if c["trials_screened"] != tc.screened || c["trials_screened"] > c["trials_rejected"] {
			t.Fatalf("%d procs: trials_screened %d of %d rejected, want %d", tc.procs, c["trials_screened"], c["trials_rejected"], tc.screened)
		}
		for _, r := range res.Trials {
			if tc.screened > 0 && r.Outcome != OutcomeUnschedulable {
				t.Fatalf("%d procs: trial %d outcome %q, want %q", tc.procs, r.Index, r.Outcome, OutcomeUnschedulable)
			}
		}
	}
}

package campaign

import (
	"math"
	"strings"
	"testing"

	"repro/internal/campaign/analyzers"
	"repro/internal/core"
)

// phaseSpec is the full-analyzer smoke spec with the before phase
// enabled — the tentpole configuration.
func phaseSpec() *Spec {
	s := analyzerSpec()
	s.AnalyzerPhases = []string{"before", "after"}
	return s
}

// TestPhaseDeterminism pins the tentpole guarantee for the phase axis:
// with before/after analysis on, the artifacts, before./delta. columns
// included, keep the byte-identity contract of checkDeterminism (the
// before-phase extras ride the shared prefix).
func TestPhaseDeterminism(t *testing.T) {
	checkDeterminism(t, phaseSpec,
		"before.contention.busy_spread", "delta.contention.busy_spread",
		"before.reuse.savings", "delta.reuse.savings", "reuse.paper_total")
}

// TestPhaseExtrasShape: accepted trials carry exactly the phased key
// set, the delta keys are literally after − before, and the
// phase-exempt analyzers (PrefixOnly, AfterOnly) gain no siblings.
func TestPhaseExtrasShape(t *testing.T) {
	spec := phaseSpec()
	res, err := (&Engine{Workers: 4}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	set, err := spec.AnalyzerSet()
	if err != nil {
		t.Fatal(err)
	}
	phases, err := spec.PhaseSet()
	if err != nil {
		t.Fatal(err)
	}
	keys := set.PhasedKeys(phases)
	if len(keys) <= len(set.Keys()) {
		t.Fatalf("phased key set (%d) not larger than the after-only one (%d)", len(keys), len(set.Keys()))
	}

	accepted := 0
	for _, tr := range res.Trials {
		if tr.Outcome != OutcomeOK {
			if len(tr.Extras) != 0 {
				t.Fatalf("rejected trial %d carries extras %v", tr.Index, tr.Extras)
			}
			continue
		}
		accepted++
		if len(tr.Extras) != len(keys) {
			t.Fatalf("trial %d: %d extras, want %d", tr.Index, len(tr.Extras), len(keys))
		}
		for _, k := range set.BeforeKeys() {
			before, okB := tr.Extras["before."+k]
			after, okA := tr.Extras[k]
			delta, okD := tr.Extras["delta."+k]
			if !okB || !okA || !okD {
				t.Fatalf("trial %d: phase triple for %q incomplete", tr.Index, k)
			}
			if delta != after-before {
				t.Fatalf("trial %d: delta.%s = %v, want after−before = %v", tr.Index, k, delta, after-before)
			}
		}
		// No sibling keys for the phase-exempt analyzers.
		for k := range tr.Extras {
			base := strings.TrimPrefix(strings.TrimPrefix(k, "before."), "delta.")
			if strings.HasPrefix(base, "schedulability.") && k != base {
				t.Fatalf("trial %d: PrefixOnly analyzer gained phase sibling %q", tr.Index, k)
			}
			if strings.HasPrefix(base, "moves.") && k != base {
				t.Fatalf("trial %d: AfterOnly analyzer gained phase sibling %q", tr.Index, k)
			}
		}
		// The reuse accounting is defined on every accepted schedule,
		// in both phases.
		if tr.Extras["reuse.savings_defined"] != 1 || tr.Extras["before.reuse.savings_defined"] != 1 {
			t.Fatalf("trial %d: reuse accounting undefined on an accepted trial: %v", tr.Index, tr.Extras)
		}
	}
	if accepted == 0 {
		t.Fatal("no accepted trial — smoke spec should accept some")
	}
}

// TestPhaseSpecHash: the phase set is part of the sweep identity —
// but only when analyzers are attached (an inert phase axis must not
// fork behaviourally identical sweeps).
func TestPhaseSpecHash(t *testing.T) {
	after, err := analyzerSpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	both, err := phaseSpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if after == both {
		t.Fatal("phase set does not change the spec hash")
	}

	// Input order canonicalises away.
	reordered := analyzerSpec()
	reordered.AnalyzerPhases = []string{"after", "before"}
	if h, err := reordered.Hash(); err != nil || h != both {
		t.Fatalf("phase order changes the spec hash: %v %v", h, err)
	}

	// Naming the default set explicitly is the default.
	explicit := analyzerSpec()
	explicit.AnalyzerPhases = []string{"after"}
	if h, err := explicit.Hash(); err != nil || h != after {
		t.Fatalf("explicit after-only set hashes apart from the default: %v %v", h, err)
	}

	// Without analyzers the phase axis is inert and collapses.
	plain, err := smokeSpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	collapsed := smokeSpec()
	collapsed.AnalyzerPhases = []string{"before", "after"}
	if h, err := collapsed.Hash(); err != nil || h != plain {
		t.Fatalf("inert phase set forks the spec hash: %v %v", h, err)
	}

	// Invalid sets are refused by Normalize with targeted messages.
	bad := analyzerSpec()
	bad.AnalyzerPhases = []string{"during"}
	if err := bad.Normalize(); err == nil || !strings.Contains(err.Error(), "unknown phase") {
		t.Fatalf("unknown phase accepted: %v", err)
	}
	onlyBefore := analyzerSpec()
	onlyBefore.AnalyzerPhases = []string{"before"}
	if err := onlyBefore.Normalize(); err == nil || !strings.Contains(err.Error(), "mandatory") {
		t.Fatalf("before-only phase set accepted: %v", err)
	}
}

// TestPhaseExtrasValidation: rows produced under the after-only phase
// set must be refused by a phased Fold (and vice versa) — the missing
// or stray before.*/delta.* columns would otherwise cover only part of
// the sweep.
func TestPhaseExtrasValidation(t *testing.T) {
	afterRows, err := (&Engine{Workers: 4}).Run(analyzerSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fold(phaseSpec(), afterRows.Trials); err == nil || !strings.Contains(err.Error(), "missing extra") {
		t.Fatalf("after-only rows under phased spec: %v", err)
	}

	phasedRows, err := (&Engine{Workers: 4}).Run(phaseSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fold(analyzerSpec(), phasedRows.Trials); err == nil || !strings.Contains(err.Error(), "phase set") {
		t.Fatalf("phased rows under after-only spec: %v", err)
	}

	// Engine.Done replay applies the same screen.
	okIdx := -1
	for i, tr := range phasedRows.Trials {
		if tr.Outcome == OutcomeOK {
			okIdx = i
			break
		}
	}
	if okIdx < 0 {
		t.Fatal("no accepted trial")
	}
	eng := &Engine{Workers: 1, Done: phasedRows.Trials[okIdx : okIdx+1]}
	if _, err := eng.Run(analyzerSpec()); err == nil || !strings.Contains(err.Error(), "phase set") {
		t.Fatalf("phased Done row under after-only spec: %v", err)
	}
}

// badAnalyzerTrial builds a Trial carrying an unregistered analyzer
// that emits a non-finite extra in the given flavour, bypassing the
// spec (specs can only name registered analyzers).
func badAnalyzerTrial(prefixOnly, afterOnly, withBefore bool) Trial {
	trials := Trial{
		Index: 7, Cell: "bad", Procs: 3, Comm: 1,
		analyzers: analyzers.Set{&analyzers.Analyzer{
			Name:       "badcase",
			Keys:       []string{"badcase.poison"},
			PrefixOnly: prefixOnly,
			AfterOnly:  afterOnly,
			Run:        func(*analyzers.Input) []float64 { return []float64{math.NaN()} },
		}},
	}
	trials.Gen.Seed, trials.Gen.Tasks, trials.Gen.Utilization = 3, 12, 1.5
	if withBefore {
		phases, err := analyzers.ParsePhases([]string{"before", "after"})
		if err != nil {
			panic(err)
		}
		trials.phases = phases
	}
	return trials
}

// TestAnalyzeErrorPropagates: a non-finite extra aborts the trial with
// an error naming the analyzer and key — through the plain path, the
// before phase (computed in the prefix), and a prefix shared by two
// trials.
func TestAnalyzeErrorPropagates(t *testing.T) {
	for _, tc := range []struct {
		label string
		trial Trial
		key   string
	}{
		{"suffix", badAnalyzerTrial(false, false, false), `"badcase.poison"`},
		{"prefix-only", badAnalyzerTrial(true, false, false), `"badcase.poison"`},
		{"before-phase", badAnalyzerTrial(false, false, true), `"before.badcase.poison"`},
	} {
		_, err := RunTrial(tc.trial)
		if err == nil {
			t.Fatalf("%s: non-finite extra did not error", tc.label)
		}
		for _, want := range []string{"badcase", tc.key, "non-finite"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %q", tc.label, err, want)
			}
		}

		// A prefix shared by two policy cells surfaces the same error on
		// both.
		other := tc.trial
		other.Index, other.Policy = tc.trial.Index+1, core.PolicyMemoryOnly
		pre := runPrefix([]Trial{tc.trial, other}, nil)
		for _, tr := range []Trial{tc.trial, other} {
			if _, err := pre.finish(tr, nil); err == nil || !strings.Contains(err.Error(), "badcase") {
				t.Fatalf("%s: shared prefix lost the analyze error on trial %d: %v", tc.label, tr.Index, err)
			}
		}
	}
}

package campaign

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// analyzerSpec is the smoke spec with every registered analyzer
// attached (after phase only — phaseSpec adds the before phase).
func analyzerSpec() *Spec {
	s := smokeSpec()
	s.Analyzers = []string{"schedulability", "moves", "contention", "reuse"}
	return s
}

// TestAnalyzerDeterminism pins the tentpole guarantee: with analyzers
// attached, the artifacts, extras columns included, keep the
// byte-identity contract of checkDeterminism.
func TestAnalyzerDeterminism(t *testing.T) {
	checkDeterminism(t, analyzerSpec, "schedulability.util_margin", "moves.block_churn", "contention.busy_spread")
}

// TestAnalyzerExtrasShape: accepted trials carry exactly the declared
// key set, rejected trials carry none, and the per-cell aggregates grow
// one Stats entry per extra whose count matches the acceptance count.
func TestAnalyzerExtrasShape(t *testing.T) {
	spec := analyzerSpec()
	res, err := (&Engine{Workers: 4}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	set, err := spec.AnalyzerSet()
	if err != nil {
		t.Fatal(err)
	}
	keys := set.Keys()
	if len(keys) == 0 {
		t.Fatal("analyzer set declares no keys")
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
		for _, k := range keys {
			if _, ok := tr.Extras[k]; !ok {
				t.Fatalf("trial %d missing extra %q", tr.Index, k)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no accepted trial — smoke spec should accept some")
	}
	for _, c := range res.Cells {
		for _, k := range keys {
			s, ok := c.Metrics[k]
			if c.Accepted == 0 {
				if ok {
					t.Fatalf("cell %s: extras stats despite zero accepted trials", c.Cell)
				}
				continue
			}
			if !ok || s.Count != c.Accepted {
				t.Fatalf("cell %s extra %q: count %d, accepted %d", c.Cell, k, s.Count, c.Accepted)
			}
		}
	}

	// The zero-analyzer path stays extras-free.
	plain, err := (&Engine{Workers: 2}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range plain.Trials {
		if tr.Extras != nil {
			t.Fatalf("zero-analyzer trial %d carries extras %v", tr.Index, tr.Extras)
		}
	}
}

// TestAnalyzerSpecHash: the analyzer set is part of the sweep identity,
// canonicalised so the naming order does not matter.
func TestAnalyzerSpecHash(t *testing.T) {
	plain, err := smokeSpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	withAna, err := analyzerSpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if plain == withAna {
		t.Fatal("analyzer set does not change the spec hash")
	}
	reordered := smokeSpec()
	reordered.Analyzers = []string{"contention", "reuse", "schedulability", "moves"}
	h, err := reordered.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != withAna {
		t.Fatal("analyzer order changes the spec hash despite canonicalisation")
	}
	bogus := smokeSpec()
	bogus.Analyzers = []string{"nope"}
	if err := bogus.Normalize(); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("unknown analyzer accepted: %v", err)
	}
}

// TestExtrasValidation: rows whose extras disagree with the spec's
// analyzer set must be refused by Fold and by Engine.Done replay — a
// silent mix would publish extras columns covering part of the sweep.
func TestExtrasValidation(t *testing.T) {
	res, err := (&Engine{Workers: 4}).Run(analyzerSpec())
	if err != nil {
		t.Fatal(err)
	}
	okIdx := -1
	for i, tr := range res.Trials {
		if tr.Outcome == OutcomeOK {
			okIdx = i
			break
		}
	}
	if okIdx < 0 {
		t.Fatal("no accepted trial")
	}
	clone := func() []TrialResult {
		rows := make([]TrialResult, len(res.Trials))
		for i, tr := range res.Trials {
			ex := make(map[string]float64, len(tr.Extras))
			for k, v := range tr.Extras {
				ex[k] = v
			}
			if tr.Extras == nil {
				ex = nil
			}
			tr.Extras = ex
			rows[i] = tr
		}
		return rows
	}

	// A missing extras key (row journaled under a smaller analyzer set).
	missing := clone()
	for k := range missing[okIdx].Extras {
		delete(missing[okIdx].Extras, k)
		break
	}
	if _, err := Fold(analyzerSpec(), missing); err == nil || !strings.Contains(err.Error(), "missing extra") {
		t.Fatalf("missing extras key: %v", err)
	}

	// A stray key (row journaled under a larger analyzer set).
	stray := clone()
	stray[okIdx].Extras["bogus.key"] = 1
	if _, err := Fold(analyzerSpec(), stray); err == nil || !strings.Contains(err.Error(), "different analyzer set") {
		t.Fatalf("stray extras key: %v", err)
	}

	// Rows with extras folded into an analyzer-free spec.
	if _, err := Fold(smokeSpec(), clone()); err == nil || !strings.Contains(err.Error(), "extras") {
		t.Fatalf("extras rows under analyzer-free spec: %v", err)
	}

	// Analyzer-free rows folded into an analyzer spec.
	plain, err := (&Engine{Workers: 4}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fold(analyzerSpec(), plain.Trials); err == nil || !strings.Contains(err.Error(), "missing extra") {
		t.Fatalf("plain rows under analyzer spec: %v", err)
	}

	// Engine.Done replay applies the same screen: the validation runs
	// before any trial does, so the error is immediate.
	bad := clone()[okIdx : okIdx+1]
	for k := range bad[0].Extras {
		delete(bad[0].Extras, k)
		break
	}
	eng := &Engine{Workers: 1, Done: bad}
	if _, err := eng.Run(analyzerSpec()); err == nil || !strings.Contains(err.Error(), "missing extra") {
		t.Fatalf("tampered Done row: %v", err)
	}
}

// TestSinkErrorNamesTrial is the regression test for the fan-out index
// bug: with Done replay rows in play, a failing sink must report the
// *trial* index that aborted the sweep, not the pending-slice position.
func TestSinkErrorNamesTrial(t *testing.T) {
	ref, err := (&Engine{Workers: 1}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	half := len(ref.Trials) / 2
	boom := errors.New("disk full")
	eng := &Engine{
		Workers: 1,
		Done:    append([]TrialResult(nil), ref.Trials[:half]...),
		Sink:    func(TrialResult) error { return boom },
	}
	_, err = eng.Run(smokeSpec())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("sink error not propagated: %v", err)
	}
	// With one worker the first live trial is exactly trials[half]; its
	// index — not 0, the pending-slice position — must be in the error.
	want := fmt.Sprintf("trial %d", half)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the aborting trial (%s)", err, want)
	}
}

package campaign

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestSinkStreamsEveryLiveTrial checks the sink contract: every live
// trial is emitted exactly once, replayed Done rows are never
// re-emitted, and a sink error aborts the run.
func TestSinkStreamsEveryLiveTrial(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	eng := &Engine{Workers: 4, Sink: func(r TrialResult) error {
		mu.Lock()
		seen[r.Index]++
		mu.Unlock()
		return nil
	}}
	res, err := eng.Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Trials) {
		t.Fatalf("sink saw %d distinct trials of %d", len(seen), len(res.Trials))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("trial %d emitted %d times", idx, n)
		}
	}

	// Replay the first half: the sink must only see the second half.
	done := append([]TrialResult(nil), res.Trials[:len(res.Trials)/2]...)
	seen = map[int]int{}
	eng.Done = done
	res2, err := eng.Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res2.Trials)-len(done) {
		t.Fatalf("sink saw %d trials, want %d live ones", len(seen), len(res2.Trials)-len(done))
	}
	for idx := range seen {
		if idx < len(done) {
			t.Fatalf("sink re-emitted replayed trial %d", idx)
		}
	}

	// A failing sink aborts the sweep loudly.
	boom := errors.New("disk full")
	bad := &Engine{Workers: 4, Sink: func(TrialResult) error { return boom }}
	if _, err := bad.Run(smokeSpec()); !errors.Is(err, boom) {
		t.Fatalf("sink error not propagated: %v", err)
	}
}

// TestFoldValidation: gaps, duplicates, and enumeration mismatches must
// all fail loudly rather than publish aggregates over the wrong rows.
func TestFoldValidation(t *testing.T) {
	ref, err := (&Engine{Workers: 4}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	rows := append([]TrialResult(nil), ref.Trials...)

	if _, err := Fold(smokeSpec(), rows[:len(rows)-1]); err == nil || !strings.Contains(err.Error(), "fold of") {
		t.Fatalf("short row set: %v", err)
	}

	dup := append([]TrialResult(nil), rows...)
	dup[3] = dup[2]
	if _, err := Fold(smokeSpec(), dup); err == nil || !strings.Contains(err.Error(), "duplicate row") {
		t.Fatalf("duplicated row: %v", err)
	}

	swap := append([]TrialResult(nil), rows...)
	swap[0].Seed += 99
	if _, err := Fold(smokeSpec(), swap); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("seed mismatch: %v", err)
	}

	// Engine-side: Done rows outside the shard range are rejected.
	eng := &Engine{Workers: 1, Lo: 0, Hi: 4, Done: []TrialResult{rows[5]}}
	if _, err := eng.Run(smokeSpec()); err == nil || !strings.Contains(err.Error(), "outside shard range") {
		t.Fatalf("out-of-range done row: %v", err)
	}
	eng = &Engine{Workers: 1, Done: []TrialResult{rows[5], rows[5]}}
	if _, err := eng.Run(smokeSpec()); err == nil || !strings.Contains(err.Error(), "duplicate completed row") {
		t.Fatalf("duplicate done row: %v", err)
	}

	// Bad shard ranges are rejected up front.
	for _, r := range [][2]int{{-1, 4}, {4, 4}, {0, len(rows) + 1}} {
		if _, err := (&Engine{Workers: 1, Lo: r[0], Hi: r[1]}).Run(smokeSpec()); err == nil {
			t.Fatalf("range %v accepted", r)
		}
	}
}

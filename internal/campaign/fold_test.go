package campaign

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// refRun produces the uninterrupted single-host reference artifacts.
func refRun(t *testing.T) (*Result, []byte, []byte) {
	t.Helper()
	res, err := (&Engine{Workers: 4}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	data, csv := artifactBytes(t, res)
	return res, data, csv
}

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

// TestResumeByteIdentical replays every prefix-length split of a
// finished run and checks the resumed artifacts are byte-identical to
// the uninterrupted ones, at several worker counts.
func TestResumeByteIdentical(t *testing.T) {
	ref, refJSON, refCSV := refRun(t)
	for _, k := range []int{0, 1, 7, len(ref.Trials) - 1, len(ref.Trials)} {
		for _, workers := range []int{1, 2, 8} {
			eng := &Engine{Workers: workers, Done: append([]TrialResult(nil), ref.Trials[:k]...)}
			res, err := eng.Run(smokeSpec())
			if err != nil {
				t.Fatalf("k=%d workers=%d: %v", k, workers, err)
			}
			if data, csv := artifactBytes(t, res); !bytes.Equal(data, refJSON) || !bytes.Equal(csv, refCSV) {
				t.Fatalf("k=%d workers=%d: resumed artifacts differ", k, workers)
			}
		}
	}
}

// TestShardFoldByteIdentical splits the grid into three index ranges,
// runs each as its own Engine, and folds the concatenated rows back
// into artifacts identical to the single run.
func TestShardFoldByteIdentical(t *testing.T) {
	ref, refJSON, refCSV := refRun(t)
	total := len(ref.Trials)
	var rows []TrialResult
	for i := 0; i < 3; i++ {
		lo, hi := total*i/3, total*(i+1)/3
		res, err := (&Engine{Workers: i + 1, Lo: lo, Hi: hi}).Run(smokeSpec())
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(res.Trials) != hi-lo {
			t.Fatalf("shard %d: %d rows, want %d", i, len(res.Trials), hi-lo)
		}
		rows = append(rows, res.Trials...)
	}
	folded, err := Fold(smokeSpec(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if data, csv := artifactBytes(t, folded); !bytes.Equal(data, refJSON) || !bytes.Equal(csv, refCSV) {
		t.Fatal("folded shard artifacts differ from the single-host run")
	}
}

// TestFoldValidation: gaps, duplicates, and enumeration mismatches must
// all fail loudly rather than publish aggregates over the wrong rows.
func TestFoldValidation(t *testing.T) {
	ref, _, _ := refRun(t)
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

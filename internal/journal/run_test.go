package journal

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
)

// TestRunAppendsBeforeSink: every live trial is in the journal file by
// the time the caller's sink sees it, and the sink sees each trial once.
func TestRunAppendsBeforeSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	hdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []int
	sink := func(r campaign.TrialResult) error {
		j, err := Read(path)
		if err != nil {
			return err
		}
		if !slices.ContainsFunc(j.Rows, func(row campaign.TrialResult) bool { return row.Index == r.Index }) {
			t.Errorf("trial %d reached the sink before the journal", r.Index)
		}
		mu.Lock()
		seen = append(seen, r.Index)
		mu.Unlock()
		return nil
	}
	res, err := w.Run(&campaign.Engine{Workers: 2, Sink: sink}, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Trials) {
		t.Fatalf("sink saw %d trials, the run has %d", len(seen), len(res.Trials))
	}
}

// TestRunClosesOnEveryReturn pins the close rule: the journal is closed
// (its lock released, so it resumes) after a drain and after a failed
// run, a close error replaces campaign.ErrInterrupted, and it never
// hides any other run error.
func TestRunClosesOnEveryReturn(t *testing.T) {
	hdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	resumable := func(t *testing.T, path string, want int) {
		t.Helper()
		w, done, err := Resume(path, hdr, nil)
		if err != nil {
			t.Fatalf("journal still held after Run returned: %v", err)
		}
		if len(done) != want {
			t.Fatalf("resume recovered %d rows, want %d", len(done), want)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("drain", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "trial.jsonl")
		w, err := Create(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var once sync.Once
		var n atomic.Int64
		sink := func(campaign.TrialResult) error {
			n.Add(1)
			once.Do(func() { close(stop) })
			return nil
		}
		if _, err := w.Run(&campaign.Engine{Workers: 2, Stop: stop, Sink: sink}, testSpec()); !errors.Is(err, campaign.ErrInterrupted) {
			t.Fatalf("drained run: %v", err)
		}
		resumable(t, path, int(n.Load()))
	})

	t.Run("sink error", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "trial.jsonl")
		w, err := Create(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		var n atomic.Int64
		sink := func(campaign.TrialResult) error {
			n.Add(1)
			return boom
		}
		if _, err := w.Run(&campaign.Engine{Workers: 1, Sink: sink}, testSpec()); !errors.Is(err, boom) {
			t.Fatalf("failed run: %v", err)
		}
		// Each trial the sink refused was appended before the sink saw it.
		resumable(t, path, int(n.Load()))
	})

	// A file closed under the writer makes its close fail.
	brokenWriter := func(t *testing.T) *Writer {
		t.Helper()
		w, err := Create(filepath.Join(t.TempDir(), "trial.jsonl"), hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.log.f.Close(); err != nil {
			t.Fatal(err)
		}
		return w
	}

	t.Run("close error replaces a drain", func(t *testing.T) {
		stop := make(chan struct{})
		close(stop)
		_, err := brokenWriter(t).Run(&campaign.Engine{Workers: 1, Stop: stop}, testSpec())
		if err == nil || errors.Is(err, campaign.ErrInterrupted) {
			t.Fatalf("drain with a failing close: %v, want the close error", err)
		}
	})

	t.Run("close error never hides a run error", func(t *testing.T) {
		bad := testSpec()
		bad.Policies = []string{"simulated-annealing"}
		_, err := brokenWriter(t).Run(&campaign.Engine{Workers: 1}, bad)
		if err == nil || !strings.Contains(err.Error(), "simulated-annealing") {
			t.Fatalf("failed run with a failing close: %v, want the run error", err)
		}
	})
}

package campaign

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// smokeSpec is small enough for CI but still exercises a 2×2 grid with
// mixed schedulability.
func smokeSpec() *Spec {
	return &Spec{
		Name:        "smoke",
		Seeds:       6,
		Tasks:       []int{12},
		Utilization: []float64{1.5},
		Procs:       []int{2, 3},
		Policies:    []string{"lexicographic", "memory-only"},
	}
}

// TestEndToEndSweep checks the whole path: enumeration, pipeline,
// aggregation, artifacts.
func TestEndToEndSweep(t *testing.T) {
	res, err := Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 6*2*2 {
		t.Fatalf("trials: %d", len(res.Trials))
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells: %d", len(res.Cells))
	}

	accepted := 0
	for _, c := range res.Cells {
		accepted += c.Accepted
		if c.Trials != 6 {
			t.Fatalf("cell %s: %d trials, want 6", c.Cell, c.Trials)
		}
		sum := 0
		for _, n := range c.Outcomes {
			sum += n
		}
		if sum != c.Trials {
			t.Fatalf("cell %s: outcome counts sum to %d of %d", c.Cell, sum, c.Trials)
		}
		for name, s := range c.Metrics {
			if s.Count != c.Accepted {
				t.Fatalf("cell %s metric %s: count %d, accepted %d", c.Cell, name, s.Count, c.Accepted)
			}
			if s.Min > s.Mean || s.Mean > s.Max || s.P50 < s.Min || s.P99 > s.Max {
				t.Fatalf("cell %s metric %s: inconsistent stats %+v", c.Cell, name, s)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no trial accepted — smoke spec should be schedulable at least sometimes")
	}

	// Accepted trials obey the paper's soundness half: Gtotal ≥ 0.
	for _, tr := range res.Trials {
		if tr.Outcome == OutcomeOK && tr.Gain < 0 {
			t.Fatalf("trial %d: negative gain %d", tr.Index, tr.Gain)
		}
	}

	// Artifacts land on disk with the expected schema.
	dir := t.TempDir()
	jp, cp, err := res.WriteArtifacts(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(jp, "smoke.json") || !strings.HasSuffix(cp, "smoke.csv") {
		t.Fatalf("paths: %s, %s", jp, cp)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "cell,metric,count,mean,std,min,max,p50,p90,p99\n") {
		t.Fatalf("csv header: %q", csv.String()[:60])
	}
	if table := res.Table(); !strings.Contains(table, "smoke") {
		t.Fatalf("table: %q", table)
	}
}

func TestMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var calls atomic.Int64
		out := Map(100, workers, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if calls.Load() != 100 {
			t.Fatalf("workers=%d: %d calls", workers, calls.Load())
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	if out := Map(0, 4, func(int) int { return 1 }); out != nil {
		t.Fatalf("n=0: %v", out)
	}
}

func TestRunTrialOutcomes(t *testing.T) {
	// Non-harmonic periods are refused by the generator.
	bad := Trial{
		Gen:   gen.Config{Seed: 1, Tasks: 5, Utilization: 1, Periods: []model.Time{10, 15}},
		Procs: 2, Comm: 1,
	}
	if r, err := RunTrial(bad); err != nil || r.Outcome != OutcomeGenError {
		t.Fatalf("non-harmonic periods: outcome %q err %v", r.Outcome, err)
	}

	// Heavy overload on one processor is unschedulable.
	over := Trial{
		Gen:   gen.Config{Seed: 1, Tasks: 30, Utilization: 8},
		Procs: 1, Comm: 1,
	}
	if r, err := RunTrial(over); err != nil || r.Outcome != OutcomeUnschedulable {
		t.Fatalf("overload: outcome %q err %v", r.Outcome, err)
	}

	// A comfortable instance goes end to end.
	ok := Trial{
		Gen:   gen.Config{Seed: 3, Tasks: 12, Utilization: 1.5},
		Procs: 3, Comm: 1,
	}
	r, err := RunTrial(ok)
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != OutcomeOK {
		t.Fatalf("comfortable instance: outcome %q", r.Outcome)
	}
	if r.Blocks == 0 || r.MakespanAfter == 0 || r.PaperMem == 0 {
		t.Fatalf("accepted trial missing observables: %+v", r)
	}
	if r.ReuseMem > r.PaperMem {
		t.Fatalf("reuse accounting above paper accounting: %+v", r)
	}
}

// TestEngineStop pins the drain contract: closing Stop makes Run return
// ErrInterrupted without abandoning in-flight trials — every row the
// sink saw is a valid enumeration row — and resuming with those rows as
// Done produces artifacts byte-identical to an uninterrupted run.
func TestEngineStop(t *testing.T) {
	ref, err := (&Engine{Workers: 2}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := ref.JSON()

	stop := make(chan struct{})
	var mu sync.Mutex
	var sunk []TrialResult
	eng := &Engine{Workers: 2, Stop: stop, Sink: func(r TrialResult) error {
		mu.Lock()
		defer mu.Unlock()
		sunk = append(sunk, r)
		if len(sunk) == 5 {
			close(stop)
		}
		return nil
	}}
	if _, err := eng.Run(smokeSpec()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if len(sunk) < 5 || len(sunk) >= 24 {
		t.Fatalf("sunk %d trials, want partial progress in [5,24)", len(sunk))
	}

	resumed, err := (&Engine{Workers: 2, Done: sunk}).Run(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := resumed.JSON()
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatal("resume after interrupt is not byte-identical to the uninterrupted run")
	}
}

// TestEngineStopClosedUpFront pins the degenerate drain: a Stop channel
// already closed when Run starts interrupts before any trial runs.
func TestEngineStopClosedUpFront(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	ran := 0
	eng := &Engine{Workers: 1, Stop: stop, Sink: func(TrialResult) error { ran++; return nil }}
	if _, err := eng.Run(smokeSpec()); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if ran != 0 {
		t.Fatalf("%d trials ran under a pre-closed Stop", ran)
	}
}

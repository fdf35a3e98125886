package coord

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second}
	cases := []struct {
		failures int
		want     time.Duration
	}{
		{0, 0}, // no failures yet: retry immediately
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{4, 800 * time.Millisecond},
		{5, time.Second}, // capped
		{50, time.Second},
	}
	for _, c := range cases {
		if got := b.Delay(c.failures, nil); got != c.want {
			t.Errorf("Delay(%d) = %v, want %v", c.failures, got, c.want)
		}
	}
	if got := (Backoff{}).Delay(3, nil); got != 0 {
		t.Errorf("zero Backoff delay = %v, want 0", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Base: time.Second, Max: time.Minute, Jitter: 0.5}
	// rnd 0 is the extreme low draw, rnd→1 the extreme high.
	if got := b.Delay(1, func() float64 { return 0 }); got != 500*time.Millisecond {
		t.Errorf("low draw = %v, want 500ms", got)
	}
	if got := b.Delay(1, func() float64 { return 1 }); got != 1500*time.Millisecond {
		t.Errorf("high draw = %v, want 1.5s", got)
	}
	// Jitter can never push a delay negative.
	tiny := Backoff{Base: time.Nanosecond, Max: time.Nanosecond, Jitter: 10}
	if got := tiny.Delay(1, func() float64 { return 0 }); got < 0 {
		t.Errorf("jittered delay went negative: %v", got)
	}
}

func TestProjectTotal(t *testing.T) {
	if _, ok := projectTotal(time.Second, 0, 10); ok {
		t.Error("no progress should project nothing")
	}
	if got, ok := projectTotal(2*time.Second, 5, 10); !ok || got != 4*time.Second {
		t.Errorf("projectTotal(2s, 5/10) = %v %v, want 4s true", got, ok)
	}
	// done > total (replayed rows can overshoot transiently) clamps.
	if got, ok := projectTotal(time.Second, 20, 10); !ok || got != time.Second {
		t.Errorf("overshoot projection = %v %v, want 1s true", got, ok)
	}
}

func TestShouldSpeculate(t *testing.T) {
	p := DefaultOptions().Straggler
	p.StallWindow = 0
	base := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	speculates := func(p StragglerPolicy, projected time.Duration, completed []time.Duration) bool {
		_, ok := p.ShouldSpeculate(projected, 0, completed)
		return ok
	}
	if !speculates(p, 5*time.Second, base) {
		t.Error("5s projected vs 2s median should speculate")
	}
	if speculates(p, 3*time.Second, base) {
		t.Error("3s projected vs 2s median is within 2x, no speculation")
	}
	if speculates(p, time.Hour, nil) {
		t.Error("no completed baseline, no speculation")
	}
	if speculates(StragglerPolicy{Disabled: true}, time.Hour, base) {
		t.Error("disabled policy speculated")
	}
	strict := p
	strict.MinCompleted = 5
	if speculates(strict, time.Hour, base) {
		t.Error("MinCompleted 5 with 3 samples speculated")
	}
}

// TestStalled: the stall rule reads how long the polled Done has stood
// still, and needs no completed baseline and no projection. In the
// coordinator, a worker without telemetry whose polled Done stops
// rising gets a twin once the window passes.
func TestStalled(t *testing.T) {
	p := StragglerPolicy{StallWindow: 100 * time.Millisecond}
	if why, ok := p.ShouldSpeculate(0, 500*time.Millisecond, nil); !ok || !strings.Contains(why, "no progress") {
		t.Errorf("Done still for 500ms of a 100ms window: %q %v, want stalled", why, ok)
	}
	if _, ok := p.ShouldSpeculate(0, 10*time.Millisecond, nil); ok {
		t.Error("progress 10ms ago reported stalled")
	}
	if _, ok := (StragglerPolicy{}).ShouldSpeculate(0, time.Hour, nil); ok {
		t.Error("zero StallWindow reported stalled")
	}
	if _, ok := (StragglerPolicy{Disabled: true, StallWindow: time.Millisecond}).ShouldSpeculate(0, time.Hour, nil); ok {
		t.Error("disabled policy reported stalled")
	}

	cfg := testConfig(t, 1)
	cfg.Straggler = StragglerPolicy{MinCompleted: 1, SlowFactor: 2, StallWindow: 50 * time.Millisecond}
	elogPath := eventLogPath(cfg)
	c := mustNew(t, cfg)
	a, b := &fakeWorker{id: "a"}, &fakeWorker{id: "b"}
	c.AddWorker(a)
	c.AddWorker(b)
	ctx := context.Background()
	c.step(ctx) // dispatches the one range to a
	jid := c.jobID(c.leases[0].rng)
	for done := 1; done <= 2; done++ {
		a.st = WorkerStatus{JobID: jid, State: JobRunning, Done: done, Total: 24}
		c.step(ctx)
	}
	if got := c.Stats().Speculations; got != 0 {
		t.Fatalf("speculations while Done rises = %d, want 0", got)
	}
	time.Sleep(2 * cfg.Straggler.StallWindow)
	c.step(ctx) // Done still 2: stalled
	if got := c.Stats().Speculations; got != 1 {
		t.Fatalf("speculations after Done stood still past the window = %d, want 1", got)
	}
	_, events := mustReadEvents(t, elogPath)
	var spec *Event
	for i := range events {
		if events[i].Type == EvSpeculate {
			spec = &events[i]
		}
	}
	if spec == nil || spec.Worker != "b" || !strings.Contains(spec.Detail, "straggling on a") {
		t.Fatalf("speculate event = %+v, want the twin on b fleeing a", spec)
	}
}

func TestClassify(t *testing.T) {
	snap := func(stages map[string]int64) *obs.Snapshot {
		s := &obs.Snapshot{Stages: map[string]obs.StageStats{}}
		for name, ns := range stages {
			s.Stages[name] = obs.StageStats{TotalNS: ns, Count: 1}
		}
		return s
	}
	got := Classify(snap(map[string]int64{"balance": 600, "journal_fsync": 400}))
	if got != "compute-bound (balance 60%)" {
		t.Errorf("Classify compute case = %q", got)
	}
	got = Classify(snap(map[string]int64{"balance": 200, "journal_fsync": 800}))
	if got != "fsync-bound (journal_fsync 80%)" {
		t.Errorf("Classify fsync case = %q", got)
	}
	if got = Classify(nil); !strings.Contains(got, "unclassified") {
		t.Errorf("Classify(nil) = %q", got)
	}
	if got = Classify(snap(map[string]int64{})); !strings.Contains(got, "unclassified") {
		t.Errorf("Classify(empty) = %q", got)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{StatePending: "pending", StateLeased: "leased",
		StateJournaled: "journaled", StateMerged: "merged", State(99): "unknown"}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
}

func TestNewValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := New(Config{JournalDir: dir}); err == nil {
		t.Error("New without a spec succeeded")
	}
	if _, err := New(Config{Spec: testSpec()}); err == nil {
		t.Error("New without a journal dir succeeded")
	}
	// Splits 0 auto-sizes (an empty pool gets the floor of 8), and more
	// splits than trials are capped at one range per trial.
	for _, tc := range []struct{ splits, want int }{{0, 8}, {1 << 20, 24}} {
		cfg := testConfig(t, tc.splits)
		c := mustNew(t, cfg)
		if got := c.Options().Splits; got != tc.want {
			t.Errorf("New with %d splits resolved %d, want %d", tc.splits, got, tc.want)
		}
		if got := len(c.Status().Leases); got != tc.want {
			t.Errorf("New with %d splits cut %d ranges, want %d", tc.splits, got, tc.want)
		}
	}
}

// TestDefaultsWrittenOnce: DefaultOptions is the one table of defaults.
// The flag defaults, a zero knob set resolved by New, and the zero
// knobs New fills all read from it; the zero values with a meaning of
// their own (-stall-window 0, a zero backoff) keep that meaning.
func TestDefaultsWrittenOnce(t *testing.T) {
	fs := flag.NewFlagSet("lbfarmd", flag.ContinueOnError)
	bound := DefaultOptions()
	bound.Bind(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if bound != DefaultOptions() {
		t.Errorf("flag defaults = %+v, want DefaultOptions %+v", bound, DefaultOptions())
	}

	resolved := func(o Options) Options {
		t.Helper()
		c := mustNew(t, Config{Options: o, Spec: testSpec(), JournalDir: t.TempDir()})
		return c.Options()
	}
	want := DefaultOptions()
	want.Splits = 8 // Splits 0 auto-sizes against an empty pool
	if got := resolved(Options{}); got != want {
		t.Errorf("zero Options resolved to %+v, want %+v", got, want)
	}
	// A set knob keeps the rest of the zero knobs on the table, except
	// where zero means something: no stall rule, no retry delay.
	got := resolved(Options{Splits: 2})
	want = DefaultOptions()
	want.Splits = 2
	want.Straggler.StallWindow = 0
	want.Backoff = Backoff{}
	if got != want {
		t.Errorf("Options{Splits: 2} resolved to %+v, want %+v", got, want)
	}

	fs = flag.NewFlagSet("lbfarmd", flag.ContinueOnError)
	bound = DefaultOptions()
	bound.Bind(fs)
	if err := fs.Parse([]string{"-stall-window", "0",
		"-backoff-base", "0", "-backoff-max", "0", "-backoff-jitter", "0"}); err != nil {
		t.Fatal(err)
	}
	got = resolved(bound)
	if d := got.Backoff.Delay(1, nil); d != 0 {
		t.Errorf("-backoff-base 0 -backoff-max 0 -backoff-jitter 0: first retry after %v, want 0", d)
	}
	if d := DefaultOptions().Backoff.Delay(1, nil); d == 0 {
		t.Error("the default backoff retries at once")
	}
	if got.Straggler.StallWindow != 0 {
		t.Errorf("-stall-window 0 resolved to %v, want 0", got.Straggler.StallWindow)
	}
	if _, ok := got.Straggler.ShouldSpeculate(0, time.Hour, nil); ok {
		t.Error("-stall-window 0 still applies the stall rule")
	}
	if _, ok := DefaultOptions().Straggler.ShouldSpeculate(0, time.Hour, nil); !ok {
		t.Error("the default stall window does not flag an hour without progress")
	}
}

// TestRecoverRejectsForeignJournal: a corrupt or foreign file sitting at
// a shard path must fail coordinator construction loudly, not be
// silently re-run over.
func TestRecoverRejectsForeignJournal(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	bad := filepath.Join(dir, spec.Name+".shard1of2.jsonl")
	if err := os.WriteFile(bad, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Options: Options{Splits: 2}, Spec: spec, JournalDir: dir})
	if err == nil || !strings.Contains(err.Error(), "delete the file") {
		t.Fatalf("New over a foreign shard file: %v", err)
	}
}

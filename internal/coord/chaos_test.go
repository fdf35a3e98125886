package coord

// Table stakes for a fault-tolerant control plane: every scenario here
// injects a real fault — a worker killed mid-range, a network partition
// healed after the liveness timeout, a speculated range completing
// twice, a coordinator restart over a half-finished lease table — and
// asserts the one invariant that matters: the merged artifact is
// byte-identical to an uninterrupted single-host run.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/obs"
)

func testSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:        "chaos",
		Seeds:       6,
		Tasks:       []int{12},
		Utilization: []float64{1.5},
		Procs:       []int{2, 3},
		Policies:    []string{"lexicographic", "memory-only"},
	}
}

// refArtifacts is the single-host baseline every chaos run must match
// byte for byte.
func refArtifacts(t *testing.T) ([]byte, []byte) {
	t.Helper()
	res, err := (&campaign.Engine{Workers: 4}).Run(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	return artifacts(t, res)
}

func artifacts(t *testing.T, res *campaign.Result) ([]byte, []byte) {
	t.Helper()
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return data, csv.Bytes()
}

func checkArtifacts(t *testing.T, res *campaign.Result) {
	t.Helper()
	refJSON, refCSV := refArtifacts(t)
	gotJSON, gotCSV := artifacts(t, res)
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatal("merged JSON differs from the single-host run")
	}
	if !bytes.Equal(gotCSV, refCSV) {
		t.Fatal("merged CSV differs from the single-host run")
	}
}

// newHTTPWorker stands up a real WorkerServer behind real HTTP and
// returns the coordinator-side client for it.
func newHTTPWorker(t *testing.T, id string, hooks Hooks, set *obs.Set) *Client {
	t.Helper()
	ws, err := NewWorkerServer(WorkerConfig{
		ID: id, Dir: t.TempDir(), Workers: 2, Obs: set, Hooks: hooks,
		Logf: func(format string, args ...any) { t.Logf("worker %s: "+format, append([]any{id}, args...)...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(ws.Handler())
	t.Cleanup(hs.Close)
	return NewClient(id, hs.URL)
}

// testConfig is the fast-twitch campaign every coordinator test shares:
// a fresh journal dir, speculation off, jitter-free backoff.
func testConfig(t *testing.T, splits int) Config {
	t.Helper()
	o := DefaultOptions()
	o.Splits = splits
	o.Liveness = 300 * time.Millisecond
	o.Poll = 20 * time.Millisecond
	o.MaxAttempts = 8
	o.Backoff = Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond}
	o.Straggler.Disabled = true
	return Config{Options: o, Spec: testSpec(), JournalDir: t.TempDir(), Logf: t.Logf}
}

// mustNew builds a coordinator and closes it when the test ends.
func mustNew(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("closing coordinator: %v", err)
		}
	})
	return c
}

// eventLogPath is where New opens cfg's event log.
func eventLogPath(cfg Config) string {
	return filepath.Join(cfg.JournalDir, cfg.Spec.Name+EventLogSuffix)
}

// TestWorkerKilledMidRange: three workers, one dies (simulated SIGKILL:
// job halts over a partial unsynced journal, all HTTP refused) after
// two journaled trials. The pool must shrink, the orphaned range must
// re-queue and finish on the survivors, and the artifact must not
// betray that anything happened.
func TestWorkerKilledMidRange(t *testing.T) {
	cfg := testConfig(t, 4)
	c := mustNew(t, cfg)
	c.AddWorker(newHTTPWorker(t, "w1", Hooks{}, nil))
	c.AddWorker(newHTTPWorker(t, "w2", Hooks{KillAfter: 2}, nil))
	c.AddWorker(newHTTPWorker(t, "w3", Hooks{}, nil))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, res)

	st := c.Stats()
	if st.DeadWorkers != 1 {
		t.Errorf("dead workers = %d, want 1", st.DeadWorkers)
	}
	if st.Requeues < 1 {
		t.Errorf("requeues = %d, want >= 1", st.Requeues)
	}
	if got := c.Workers(); got != 2 {
		t.Errorf("surviving pool = %d workers, want 2", got)
	}
	if st.Journaled != 4 {
		t.Errorf("journaled ranges = %d, want 4", st.Journaled)
	}
}

// flakyWorker wraps a Worker with a severable network: while down, every
// RPC fails at the transport layer, but the wrapped worker keeps
// running — exactly a partition, not a crash.
type flakyWorker struct {
	w    Worker
	down atomic.Bool
}

func (f *flakyWorker) cut() error {
	if f.down.Load() {
		return errors.New("network partition")
	}
	return nil
}
func (f *flakyWorker) ID() string { return f.w.ID() }
func (f *flakyWorker) Start(ctx context.Context, job Job) error {
	if err := f.cut(); err != nil {
		return err
	}
	return f.w.Start(ctx, job)
}
func (f *flakyWorker) Status(ctx context.Context, jobID string) (WorkerStatus, error) {
	if err := f.cut(); err != nil {
		return WorkerStatus{}, err
	}
	return f.w.Status(ctx, jobID)
}
func (f *flakyWorker) Cancel(ctx context.Context, jobID string) error {
	if err := f.cut(); err != nil {
		return err
	}
	return f.w.Cancel(ctx, jobID)
}
func (f *flakyWorker) Journal(ctx context.Context, jobID string) ([]byte, error) {
	if err := f.cut(); err != nil {
		return nil, err
	}
	return f.w.Journal(ctx, jobID)
}

// TestHeartbeatLostThenRecovered: the only worker is partitioned away —
// its job RPCs and its registrations both — long enough to be declared
// dead and its lease re-queued. The coordinator takes its pool from a
// Registry served over HTTP, and the worker runs the real Announce loop.
// When the partition heals, the worker's next periodic register must
// rejoin it to the running campaign, which re-dispatches to it
// (idempotently: the worker never stopped) and finishes with a
// byte-identical artifact.
//
// The worker cuts the network itself after its first journaled trial,
// so the partition always falls inside the running job, however the
// test goroutine is scheduled: not before the dispatch reached the
// worker, and not after the job landed.
func TestHeartbeatLostThenRecovered(t *testing.T) {
	fw := &flakyWorker{}
	var cutOnce sync.Once
	slow := Hooks{SinkDelay: func(campaign.TrialResult) {
		cutOnce.Do(func() { fw.down.Store(true) })
		time.Sleep(20 * time.Millisecond)
	}}
	addr := newWorkerURL(t, "w1", slow)
	fw.w = NewClient("w1", addr)
	reg := NewRegistry(func(string, string) Worker { return fw }, t.Logf)
	mux := http.NewServeMux()
	reg.Routes(mux)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fw.down.Load() {
			http.Error(w, "network partition", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer hs.Close()

	cfg := testConfig(t, 1)
	cfg.Registry = reg
	c := mustNew(t, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	announced, done := make(chan struct{}), make(chan struct{})
	defer func() { cancel(); <-announced; <-done }()
	go func() {
		defer close(announced)
		Announce(ctx, hs.URL, "w1", addr, 50*time.Millisecond, t.Logf)
	}()
	var res *campaign.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = c.Run(ctx)
	}()

	// The network stays cut until the coordinator declares the worker
	// dead and re-queues its range.
	waitFor(t, func() bool { return c.Stats().DeadWorkers == 1 })
	if st := c.Stats(); st.Requeues != 1 {
		t.Errorf("requeues after partition = %d, want 1", st.Requeues)
	}
	if got := c.Workers(); got != 0 {
		t.Errorf("pool after partition = %d workers, want 0", got)
	}

	// Heal: nothing else happens but the worker's own Announce loop.
	fw.down.Store(false)

	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	checkArtifacts(t, res)
	if st := c.Stats(); st.Registered != 2 {
		t.Errorf("registrations = %d, want 2 (initial + rejoin)", st.Registered)
	}
}

// TestSlowPollBuriesNoOne: one tick polls the workers one after
// another, so a status RPC slower than the liveness window delays the
// liveness check of every worker polled before it. Those answered this
// tick's poll and must stay alive, whatever order the tick polled in.
func TestSlowPollBuriesNoOne(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Liveness = 50 * time.Millisecond
	c := mustNew(t, cfg)
	c.AddWorker(&fakeWorker{id: "fast"})
	c.AddWorker(&slowWorker{fakeWorker: fakeWorker{id: "slow"}, delay: 80 * time.Millisecond})
	for i := 0; i < 8; i++ {
		c.step(context.Background())
	}
	if st := c.Stats(); st.DeadWorkers != 0 || c.Workers() != 2 {
		t.Errorf("after 8 ticks with an 80ms poll: %d workers dead, %d in the pool; want 0 and 2", st.DeadWorkers, c.Workers())
	}
}

// slowWorker answers its status poll after a delay.
type slowWorker struct {
	fakeWorker
	delay time.Duration
}

func (w *slowWorker) Status(ctx context.Context, jobID string) (WorkerStatus, error) {
	time.Sleep(w.delay)
	return w.fakeWorker.Status(ctx, jobID)
}

// TestSilentWorkerGetsNoWork: a worker that missed this tick's poll is
// not dispatched to. It would refuse, and every refusal burns an
// attempt of the range's budget until the liveness window buries the
// worker; the range goes to a worker that answered instead.
func TestSilentWorkerGetsNoWork(t *testing.T) {
	c := mustNew(t, testConfig(t, 1))
	cut := &flakyWorker{w: &fakeWorker{id: "a"}}
	cut.down.Store(true)
	c.AddWorker(cut)
	c.AddWorker(&fakeWorker{id: "b"})
	c.step(context.Background())
	st := c.Status()
	if st.Stats.Requeues != 0 || len(st.Leases[0].Workers) != 1 || st.Leases[0].Workers[0] != "b" {
		t.Errorf("range leased to %v with %d requeues; want it on b, the worker that answered, with none", st.Leases[0].Workers, st.Stats.Requeues)
	}
}

// fakeWorker is an in-process Worker with scripted answers, for driving
// the scheduler's transitions deterministically.
type fakeWorker struct {
	id       string
	st       WorkerStatus
	journal  []byte
	canceled atomic.Int64
}

func (f *fakeWorker) ID() string                       { return f.id }
func (f *fakeWorker) Start(context.Context, Job) error { return nil }
func (f *fakeWorker) Status(context.Context, string) (WorkerStatus, error) {
	return f.st, nil
}
func (f *fakeWorker) Cancel(context.Context, string) error {
	f.canceled.Add(1)
	return nil
}
func (f *fakeWorker) Journal(context.Context, string) ([]byte, error) { return f.journal, nil }

// TestDuplicateCompletionOfReissuedRange: a speculated range completes
// on both tenants in the same tick. Exactly one journal may land; the
// other must be discarded, counted, and its worker canceled — and the
// merge must still be byte-identical.
func TestDuplicateCompletionOfReissuedRange(t *testing.T) {
	cfg := testConfig(t, 1)
	elogPath := eventLogPath(cfg)
	c := mustNew(t, cfg)

	// The complete shard journal both fakes will hand back.
	spec := testSpec()
	hdr, err := journal.NewHeader(spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/full.jsonl"
	w, err := journal.Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	eng := &campaign.Engine{Workers: 4, Sink: w.Append}
	if _, err := eng.Run(spec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	f1 := &fakeWorker{id: "a", journal: data}
	f2 := &fakeWorker{id: "b", journal: data}
	c.AddWorker(f1)
	c.AddWorker(f2)

	// Seat both fakes on the one lease, the state a speculative re-issue
	// leaves behind, both reporting done.
	c.mu.Lock()
	l := c.leases[0]
	jid := c.jobID(l.rng)
	l.state = StateLeased
	l.workers["a"], l.workers["b"] = jid, jid
	l.started = time.Now()
	c.workers["a"].lease = 0
	c.workers["b"].lease = 0
	c.mu.Unlock()
	st := WorkerStatus{JobID: jid, State: JobDone, Done: hdr.Hi - hdr.Lo, Total: hdr.Hi - hdr.Lo}
	f1.st, f2.st = st, st

	c.step(context.Background())

	stats := c.Stats()
	if stats.Journaled != 1 {
		t.Fatalf("journaled = %d, want 1", stats.Journaled)
	}
	if stats.DuplicatesDiscarded != 1 {
		t.Errorf("duplicates discarded = %d, want 1", stats.DuplicatesDiscarded)
	}
	if f1.canceled.Load()+f2.canceled.Load() == 0 {
		t.Error("the losing twin was never canceled")
	}
	res, err := c.merge()
	if err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, res)

	// The flight recorder must show exactly one landing and one discard.
	_, events := mustReadEvents(t, elogPath)
	landed, discarded := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case EvShardLanded:
			landed++
		case EvDuplicateDiscard:
			discarded++
		}
	}
	if landed != 1 || discarded != 1 {
		t.Errorf("event log records %d landings and %d discards, want 1 and 1", landed, discarded)
	}
}

// TestCoordinatorRestartOverHalfFinishedTable: a coordinator is killed
// (context cancel) once half the ranges are journaled. A fresh
// coordinator over the same journal directory must recover those ranges
// from disk, re-issue only the missing ones, and finish byte-identical.
func TestCoordinatorRestartOverHalfFinishedTable(t *testing.T) {
	cfg := testConfig(t, 4)
	c1 := mustNew(t, cfg)
	slow := Hooks{SinkDelay: func(campaign.TrialResult) { time.Sleep(5 * time.Millisecond) }}
	c1.AddWorker(newHTTPWorker(t, "w1", slow, nil))

	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c1.Run(ctx1)
	}()
	waitFor(t, func() bool { return c1.Stats().Journaled >= 2 })
	cancel1()
	<-done

	recovered := c1.Stats().Journaled
	// The event log is held exclusively: close before reopening.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := mustNew(t, cfg) // same JournalDir: the durable lease table
	st := c2.Stats()
	if st.RecoveredJournals < 2 {
		t.Fatalf("recovered journals = %d, want >= 2", st.RecoveredJournals)
	}
	if st.RecoveredJournals < recovered {
		t.Errorf("recovered %d journals, first coordinator had landed %d", st.RecoveredJournals, recovered)
	}
	c2.AddWorker(newHTTPWorker(t, "w2", Hooks{}, nil))

	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	res, err := c2.Run(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, res)
	if got := c2.Stats().Dispatches; got != 4-st.RecoveredJournals {
		t.Errorf("second coordinator dispatched %d ranges, want %d (only the missing ones)",
			got, 4-st.RecoveredJournals)
	}
}

// TestStragglerSpeculativeReissue: one of two workers crawls (injected
// sink latency). Once the fast worker establishes the baseline, the
// coordinator must speculate the crawling range onto it, take the
// twin's journal, cancel the straggler, and stay byte-identical.
func TestStragglerSpeculativeReissue(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Straggler = StragglerPolicy{MinCompleted: 1, SlowFactor: 2}
	elogPath := eventLogPath(cfg)
	c := mustNew(t, cfg)
	slow := Hooks{SinkDelay: func(campaign.TrialResult) { time.Sleep(75 * time.Millisecond) }}
	// The slow worker carries telemetry so the speculation path exercises
	// the polled snapshot and its classification.
	c.AddWorker(newHTTPWorker(t, "w-slow", slow, obs.NewSet(2)))
	c.AddWorker(newHTTPWorker(t, "w-fast", Hooks{}, nil))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, res)
	if st := c.Stats(); st.Speculations < 1 {
		t.Errorf("speculations = %d, want >= 1", st.Speculations)
	}

	// The speculation decision must be on the record, naming both the
	// straggler it fled and the twin it was re-issued to.
	_, events := mustReadEvents(t, elogPath)
	found := false
	for _, ev := range events {
		if ev.Type == EvSpeculate {
			found = true
			if ev.Worker != "w-fast" || !strings.Contains(ev.Detail, "w-slow") {
				t.Errorf("speculate event names worker %q detail %q, want twin w-fast fleeing w-slow", ev.Worker, ev.Detail)
			}
			// The injected delay sits in the sink, so the diagnosis from
			// the last poll's snapshot must name the sink wait.
			if !strings.Contains(ev.Detail, "sink_wait") {
				t.Errorf("speculate event detail %q, want the straggler diagnosed by sink_wait", ev.Detail)
			}
		}
	}
	if !found {
		t.Error("no speculate event in the log")
	}
}

// waitFor polls cond at the chaos tests' tick rate until it holds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package coord

// Registry + Coordinator are the library seam lbfarmd -fleet runs on:
// these tests pin the pool semantics (seed on attach, forward while
// attached, stop at detach) and the registry-fed coordinator lifecycle
// (auto splits, event-log placement, recovery through OnShard).

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// newWorkerURL stands up a real WorkerServer behind real HTTP and
// returns its base URL — what a worker would advertise when
// registering.
func newWorkerURL(t *testing.T, id string, hooks Hooks) string {
	t.Helper()
	ws, err := NewWorkerServer(WorkerConfig{
		ID: id, Dir: t.TempDir(), Workers: 2, Hooks: hooks,
		Logf: func(format string, args ...any) { t.Logf("worker %s: "+format, append([]any{id}, args...)...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(ws.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestRegistryAttachSeedForwardDetach: a coordinator attached to a
// registry is seeded with the existing pool, receives later
// registrations, and stops receiving them after detach.
func TestRegistryAttachSeedForwardDetach(t *testing.T) {
	reg := NewRegistry(func(id, addr string) Worker { return &fakeWorker{id: id} }, t.Logf)

	reg.Register("w1", "addr1")
	reg.Register("w2", "addr2")
	if reg.Size() != 2 {
		t.Fatalf("pool size = %d, want 2", reg.Size())
	}

	c := mustNew(t, testConfig(t, 4))
	detach := reg.Attach(c)
	if got := c.Workers(); got != 2 {
		t.Fatalf("seeded workers = %d, want 2", got)
	}

	reg.Register("w3", "addr3")
	if got := c.Workers(); got != 3 {
		t.Fatalf("workers after live registration = %d, want 3", got)
	}
	w1 := func() Worker {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.workers["w1"].w
	}
	// The periodic re-register of a held worker swaps no handle; one at
	// a new address does.
	seeded := w1()
	reg.Register("w1", "addr1")
	if w1() != seeded {
		t.Fatal("an unchanged re-register swapped w1's handle")
	}
	reg.Register("w1", "addr1-moved")
	if w1() == seeded {
		t.Fatal("an address change kept w1's old handle")
	}

	detach()
	reg.Register("w4", "addr4")
	if got := c.Workers(); got != 3 {
		t.Fatalf("workers after detach = %d, want 3 (no forwarding)", got)
	}
	if reg.Size() != 4 {
		t.Fatalf("registry size = %d, want 4", reg.Size())
	}
}

// TestRegistryRoutes: the HTTP registration passthrough feeds attached
// coordinators — the exact path lbfarm -worker -coord exercises against
// lbfarmd -fleet — and a worker repeating its registration (its
// heartbeat) leaves no trace on a coordinator that holds it.
func TestRegistryRoutes(t *testing.T) {
	reg := NewRegistry(func(id, addr string) Worker { return &fakeWorker{id: id} }, t.Logf)
	cfg := testConfig(t, 4)
	c := mustNew(t, cfg)
	defer reg.Attach(c)()

	mux := http.NewServeMux()
	reg.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for range 3 {
		resp, err := http.Post(srv.URL+"/v1/register", "application/json",
			strings.NewReader(`{"id":"w1","addr":"http://w1"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("register = %d, want 204", resp.StatusCode)
		}
	}
	if got := c.Workers(); got != 1 {
		t.Fatalf("workers after HTTP registration = %d, want 1", got)
	}
	_, events := mustReadEvents(t, eventLogPath(cfg))
	if len(events) != 1 || events[0].Type != EvRegistered {
		t.Fatalf("three identical registrations logged %+v, want one %s event", events, EvRegistered)
	}

	// Malformed registrations answer with the shared envelope.
	resp, err := http.Post(srv.URL+"/v1/register", "application/json", strings.NewReader(`{"id":""}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty registration = %d, want 400", resp.StatusCode)
	}
}

// TestRegistryForgetsDeadWorker: a worker one campaign declares dead
// leaves the registry, so the next campaign is neither seeded with it
// nor spends range attempts on it; its next registration adds it back.
func TestRegistryForgetsDeadWorker(t *testing.T) {
	reg := NewRegistry(nil, t.Logf)
	// 24 trials at 50 ms each, two at a time, outlast the 300 ms liveness
	// window.
	slow := Hooks{SinkDelay: func(campaign.TrialResult) { time.Sleep(50 * time.Millisecond) }}
	reg.Register("live", newWorkerURL(t, "live", slow))
	reg.Register("gone", "http://127.0.0.1:1") // nothing listens there

	run := func() Stats {
		cfg := testConfig(t, 4)
		cfg.Registry = reg
		c := mustNew(t, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		res, err := c.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		checkArtifacts(t, res)
		return c.Stats()
	}
	if st := run(); st.DeadWorkers != 1 {
		t.Fatalf("first campaign: %d dead workers, want the unreachable one", st.DeadWorkers)
	}
	if got := reg.Size(); got != 1 {
		t.Fatalf("registry holds %d workers after one was declared dead, want 1", got)
	}
	if st := run(); st.Registered != 1 || st.DeadWorkers != 0 || st.Requeues != 0 {
		t.Fatalf("second campaign: %+v, want only the live worker and no requeue", st)
	}
	reg.Register("gone", "http://127.0.0.1:1")
	if got := reg.Size(); got != 2 {
		t.Fatalf("registry holds %d workers after the forgotten one registered again, want 2", got)
	}
}

// TestAutoSplits pins the shared auto-sizing rule.
func TestAutoSplits(t *testing.T) {
	for _, tc := range []struct {
		splits, workers, trials, want int
	}{
		{0, 0, 100, 8},   // empty pool: the floor
		{0, 1, 100, 8},   // small pool: still the floor
		{0, 3, 100, 12},  // 4 per worker
		{0, 3, 10, 10},   // capped at one per trial
		{6, 50, 100, 6},  // explicit splits win over the pool
		{200, 2, 24, 24}, // explicit splits still capped by trials
	} {
		if got := AutoSplits(tc.splits, tc.workers, tc.trials); got != tc.want {
			t.Errorf("AutoSplits(%d, %d, %d) = %d, want %d", tc.splits, tc.workers, tc.trials, got, tc.want)
		}
	}
}

// TestCoordinatorEndToEnd: a coordinator over a registry-fed pool runs
// the campaign to byte-identical artifacts, writes its event log at the
// fixed per-campaign path, and reports rows through OnShard.
func TestCoordinatorEndToEnd(t *testing.T) {
	reg := NewRegistry(nil, t.Logf)
	for _, id := range []string{"w1", "w2"} {
		reg.Register(id, newWorkerURL(t, id, Hooks{}))
	}

	var mu sync.Mutex
	var live int
	cfg := testConfig(t, 4)
	cfg.Registry = reg
	cfg.OnShard = func(rng Range, rows []campaign.TrialResult, recovered bool) {
		mu.Lock()
		defer mu.Unlock()
		if recovered {
			t.Errorf("fresh run reported range %d as recovered", rng.Index)
		}
		live += len(rows)
	}
	c := mustNew(t, cfg)

	if got := c.Options().Splits; got != 4 {
		t.Errorf("splits = %d, want 4", got)
	}
	wantLog := filepath.Join(cfg.JournalDir, "chaos"+EventLogSuffix)
	if _, err := os.Stat(wantLog); err != nil {
		t.Errorf("event log not at %s: %v", wantLog, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, res)
	if live != 24 {
		t.Errorf("OnShard delivered %d live rows, want 24", live)
	}
	if st := c.Status(); st.Stats.Journaled != 4 {
		t.Errorf("status journaled = %d, want 4", st.Stats.Journaled)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Close detached the registry: later registrations stay away.
	reg.Register("late", "http://127.0.0.1:1")
	if got := c.Workers(); got != 2 {
		t.Errorf("workers after Close and a new registration = %d, want 2", got)
	}
	if _, events, err := ReadEventLog(wantLog); err != nil {
		t.Fatal(err)
	} else if events[len(events)-1].Type != EvMerged {
		t.Errorf("last event = %s, want merged", events[len(events)-1].Type)
	}
}

// TestCoordinatorResume: a second coordinator over an interrupted
// one's journal dir recovers the landed shards (reported through
// OnShard with recovered=true), re-runs only the rest, and stays
// byte-identical — the seam FleetExecutor's drain/resume rides on.
func TestCoordinatorResume(t *testing.T) {
	reg := NewRegistry(nil, t.Logf)
	slow := Hooks{SinkDelay: func(campaign.TrialResult) { time.Sleep(5 * time.Millisecond) }}
	reg.Register("w1", newWorkerURL(t, "w1", slow))
	cfg := testConfig(t, 4)
	cfg.Registry = reg

	c1 := mustNew(t, cfg)
	ctx1, cancel1 := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c1.Run(ctx1)
	}()
	waitFor(t, func() bool { return c1.Stats().Journaled >= 2 })
	cancel1()
	<-done
	landed := c1.Stats().Journaled
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	var recovered int
	cfg.OnShard = func(rng Range, rows []campaign.TrialResult, rec bool) {
		if rec {
			recovered += len(rows)
		}
	}
	c2 := mustNew(t, cfg)
	if got := c2.Stats().RecoveredJournals; got < landed {
		t.Errorf("recovered journals = %d, first coordinator landed %d", got, landed)
	}
	if recovered < 2*6 {
		t.Errorf("OnShard recovered %d rows, want >= 12 (2 shards of 6)", recovered)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	res, err := c2.Run(ctx2)
	if err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, res)

	// The reopened event log extends the first coordinator's history.
	_, events, err := ReadEventLog(eventLogPath(cfg))
	if err != nil {
		t.Fatal(err)
	}
	recEvents := 0
	for _, ev := range events {
		if ev.Type == EvShardRecovered {
			recEvents++
		}
	}
	if recEvents < 2 {
		t.Errorf("event log records %d shard recoveries, want >= 2", recEvents)
	}
}

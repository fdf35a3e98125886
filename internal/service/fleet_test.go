package service

// The fleet executor end to end: a daemon dispatching submitted
// campaigns to a registered worker pool must survive a worker killed
// mid-run, serve artifacts byte-identical to the local engine path,
// land the fleetinfo document in the cache, keep an event-log audit
// trail of the fault, and drain/resume exactly like the local path.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/obs"
)

// fleetSpec is a multi-cell sweep big enough to shard meaningfully:
// 4 cells × 6 seeds = 24 trials over 4 splits.
func fleetSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:        "svc-fleet",
		Seeds:       6,
		Tasks:       []int{12},
		Utilization: []float64{1.5},
		Procs:       []int{2, 3},
		Policies:    []string{"lexicographic", "memory-only"},
	}
}

// fleetOpts is the chaos tests' fast-twitch knob set as coord.Options.
func fleetOpts() coord.Options {
	o := coord.DefaultOptions()
	o.Splits = 4
	o.Liveness = 300 * time.Millisecond
	o.Poll = 20 * time.Millisecond
	o.Backoff.Base = 10 * time.Millisecond
	o.Backoff.Max = 50 * time.Millisecond
	o.MaxAttempts = 8
	o.Straggler.Disabled = true
	return o
}

// addWorker registers a real HTTP worker with the registry.
func addWorker(t *testing.T, reg *coord.Registry, id string, hooks coord.Hooks) {
	t.Helper()
	ws, err := coord.NewWorkerServer(coord.WorkerConfig{
		ID: id, Dir: t.TempDir(), Workers: 2, Obs: obs.NewSet(2), Hooks: hooks,
		Logf: func(format string, args ...any) { t.Logf("worker %s: "+format, append([]any{id}, args...)...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(ws.Handler())
	t.Cleanup(hs.Close)
	reg.Register(id, hs.URL)
}

// newFleetDaemon builds (but does not Start) a daemon executing on reg.
func newFleetDaemon(t *testing.T, dir string, reg *coord.Registry, hooks Hooks) *Daemon {
	t.Helper()
	store, err := OpenFSStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	journals := filepath.Join(dir, "journals")
	d, err := New(Config{
		Store:         store,
		JournalDir:    journals,
		ProgressEvery: 10 * time.Millisecond,
		Executor:      NewFleetExecutor(reg, fleetOpts(), journals, t.Logf),
		Logf:          t.Logf,
		Hooks:         hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFleetEndToEnd is the acceptance hinge: a campaign submitted to a
// fleet daemon with three workers — one SIGKILLed mid-range — completes
// with artifacts byte-identical to the local engine, a fleetinfo
// artifact, a live fleet status block while running, lbfleet_ metric
// families, and an event log recording dispatch → worker_dead → requeue
// for the orphaned range.
func TestFleetEndToEnd(t *testing.T) {
	reg := coord.NewRegistry(nil, t.Logf)
	slow := func(campaign.TrialResult) { time.Sleep(2 * time.Millisecond) }
	addWorker(t, reg, "w1", coord.Hooks{SinkDelay: slow})
	addWorker(t, reg, "w2", coord.Hooks{KillAfter: 2, SinkDelay: slow})
	addWorker(t, reg, "w3", coord.Hooks{SinkDelay: slow})

	dir := t.TempDir()
	d := newFleetDaemon(t, dir, reg, Hooks{})
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	d.Start()

	st, code := submit(t, srv, specBody(t, fleetSpec()))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}

	// While running, the status report carries the embedded
	// coordinator's control plane: lease table, worker pool, counters.
	var sawFleet, sawPool, sawTrials bool
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		cur, ok := d.Status(st.ID)
		if !ok {
			t.Fatal("campaign vanished")
		}
		if cur.State.Terminal() {
			break
		}
		if cur.State == api.CampaignRunning && cur.Fleet != nil {
			sawFleet = true
			if cur.Fleet.Splits != 4 || len(cur.Fleet.Leases) != 4 {
				t.Errorf("fleet block: splits=%d leases=%d, want 4/4", cur.Fleet.Splits, len(cur.Fleet.Leases))
			}
			// Mid-run /metrics composes the control, fleet and lease
			// families on one page.
			data, _ := fetch(t, srv, "/metrics")
			typedOnce(t, data)
			// The running gauges are exact only if the campaign's
			// coordinator outlived the scrape.
			if after, _ := d.Status(st.ID); after.Fleet != nil {
				for series, want := range map[string]float64{"lbfleet_campaigns_running": 1, "lbfarmd_running": 1} {
					if v, ok := promValue(data, series); !ok || v != want {
						t.Errorf("mid-run %s = %v (present %v), want %v", series, v, ok, want)
					}
				}
			}
			v, _ := promValue(data, "lbfleet_workers")
			sawPool = sawPool || v == 3
			v, _ = promValue(data, "lbfleet_trials_accepted_total")
			sawTrials = sawTrials || v > 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawFleet || !sawPool || !sawTrials {
		t.Errorf("while running: fleet status block seen %v, lbfleet_workers 3 seen %v, lbfleet_trials_accepted_total > 0 seen %v",
			sawFleet, sawPool, sawTrials)
	}

	fin := waitDone(t, srv, st.ID)
	if fin.State != api.CampaignDone {
		t.Fatalf("final state = %s (%s)", fin.State, fin.Error)
	}
	if fin.Fleet != nil {
		t.Error("finished campaign still reports a fleet block")
	}

	// Byte-identity against the local engine.
	gotJSON, code := fetch(t, srv, fin.Artifacts[KindJSON])
	if code != http.StatusOK {
		t.Fatalf("artifact fetch = %d", code)
	}
	res, err := (&campaign.Engine{Workers: 4}).Run(fleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("fleet artifact differs from the local engine run")
	}

	// The fleetinfo document landed as a fourth artifact.
	fiPath, ok := fin.Artifacts[KindFleetInfo]
	if !ok {
		t.Fatalf("no fleetinfo artifact in %v", fin.Artifacts)
	}
	fi, code := fetch(t, srv, fiPath)
	if code != http.StatusOK || !bytes.Contains(fi, []byte(`"workers"`)) {
		t.Fatalf("fleetinfo fetch = %d: %s", code, fi)
	}

	// The fault is on the record: the campaign's event log names the
	// dead worker and shows its range re-queued and finally landed.
	elog := filepath.Join(dir, "journals", st.ID+".fleet", "svc-fleet"+coord.EventLogSuffix)
	hdr, events, err := coord.ReadEventLog(elog)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.ValidateEvents(hdr, events); err != nil {
		t.Fatal(err)
	}
	killed := -1
	for _, ev := range events {
		if ev.Type == coord.EvWorkerDead && ev.Range != nil {
			killed = ev.Range.Index
		}
	}
	if killed < 0 {
		t.Fatal("no worker_dead event with a leased range in the log")
	}
	history := coord.RangeHistory(events, killed)
	var shape []coord.EventType
	for _, ev := range history {
		switch ev.Type {
		case coord.EvDispatch, coord.EvWorkerDead, coord.EvRequeue, coord.EvShardLanded:
			shape = append(shape, ev.Type)
		}
	}
	want := []coord.EventType{coord.EvDispatch, coord.EvWorkerDead, coord.EvRequeue}
	for i, w := range want {
		if i >= len(shape) || shape[i] != w {
			t.Fatalf("range %d history = %v, want prefix %v", killed, shape, want)
		}
	}
	if shape[len(shape)-1] != coord.EvShardLanded {
		t.Errorf("range %d history = %v, want it to end shard_landed", killed, shape)
	}
	if events[len(events)-1].Type != coord.EvMerged {
		t.Errorf("last event = %s, want merged", events[len(events)-1].Type)
	}
	count := func(events []coord.Event) map[coord.EventType]int {
		n := map[coord.EventType]int{}
		for _, ev := range events {
			n[ev.Type]++
		}
		return n
	}
	before := count(events)
	if before[coord.EvShardLanded] != 4 {
		t.Errorf("%d shard_landed events, want one per range (4)", before[coord.EvShardLanded])
	}

	// Cache-hit parity with the local path: the duplicate answers from
	// the cache with zero dispatches.
	st2, code := submit(t, srv, specBody(t, fleetSpec()))
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("duplicate submit = %d cached=%v, want 200 cached", code, st2.Cached)
	}
	_, events2, err := coord.ReadEventLog(elog)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(events2)[coord.EvDispatch]; got != before[coord.EvDispatch] {
		t.Fatalf("duplicate submit dispatched ranges: %d → %d", before[coord.EvDispatch], got)
	}
}

// TestFleetDrainResume pins the fleet twin of the local journal resume:
// a daemon drained mid-campaign re-queues it, and the next daemon's
// coordinator recovers the landed shard journals, re-runs only the missing
// ranges, and finishes byte-identical. trialsExecuted counts only
// durable (landed) rows, so the two daemons' counts partition the sweep
// exactly — the same invariant the local restart test pins.
func TestFleetDrainResume(t *testing.T) {
	reg := coord.NewRegistry(nil, t.Logf)
	slow := func(campaign.TrialResult) { time.Sleep(5 * time.Millisecond) }
	addWorker(t, reg, "w1", coord.Hooks{SinkDelay: slow})
	addWorker(t, reg, "w2", coord.Hooks{SinkDelay: slow})

	dir := t.TempDir()
	var once sync.Once
	reached := make(chan struct{})
	d1 := newFleetDaemon(t, dir, reg, Hooks{SinkTick: func(id string, done int) {
		if done >= 6 {
			once.Do(func() { close(reached) })
		}
	}})
	d1.Start()
	st, err := d1.Submit(bytes.NewReader(specBody(t, fleetSpec())))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(60 * time.Second):
		t.Fatal("never reached 6 landed trials")
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if d1.Interrupted() != 1 {
		t.Fatalf("interrupted = %d, want 1", d1.Interrupted())
	}
	if got, _ := d1.Status(st.ID); got.State != api.CampaignQueued {
		t.Fatalf("state after drain = %s, want queued", got.State)
	}
	ran1 := d1.Stats().TrialsExecuted
	if ran1 < 6 || ran1 >= 24 {
		t.Fatalf("first daemon landed %d of 24 trials", ran1)
	}

	d2 := newFleetDaemon(t, dir, reg, Hooks{})
	defer d2.Close()
	srv := httptest.NewServer(d2.Handler())
	defer srv.Close()
	d2.Start()
	fin := waitDone(t, srv, st.ID)
	if fin.State != api.CampaignDone {
		t.Fatalf("final state = %s (%s)", fin.State, fin.Error)
	}
	ran2 := d2.Stats().TrialsExecuted
	if ran1+ran2 != 24 {
		t.Fatalf("landed %d + %d trials, want 24 total (recovered shards must not re-run)", ran1, ran2)
	}

	gotJSON, code := fetch(t, srv, fin.Artifacts[KindJSON])
	if code != http.StatusOK {
		t.Fatalf("artifact fetch = %d", code)
	}
	res, err := (&campaign.Engine{Workers: 4}).Run(fleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("resumed fleet artifact differs from an uninterrupted local run")
	}

	// The extended event log shows the recovery.
	elog := filepath.Join(dir, "journals", st.ID+".fleet", "svc-fleet"+coord.EventLogSuffix)
	_, events, err := coord.ReadEventLog(elog)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, ev := range events {
		if ev.Type == coord.EvShardRecovered {
			recovered++
		}
	}
	if recovered < 1 {
		t.Error("no shard_recovered events after the resume")
	}
}

// TestFleetTwoCampaigns: one fleet executor runs two distinct campaigns
// back to back. Each must finish byte-identical to the local engine with
// its own valid event log under its own campaign directory, and while
// each runs, the daemon's /metrics must carry the control-plane lease
// gauge (summing to the split count) and the fault counters.
func TestFleetTwoCampaigns(t *testing.T) {
	reg := coord.NewRegistry(nil, t.Logf)
	slow := func(campaign.TrialResult) { time.Sleep(5 * time.Millisecond) }
	addWorker(t, reg, "w1", coord.Hooks{SinkDelay: slow})
	addWorker(t, reg, "w2", coord.Hooks{SinkDelay: slow})

	dir := t.TempDir()
	d := newFleetDaemon(t, dir, reg, Hooks{})
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	d.Start()

	second := fleetSpec()
	second.Name = "svc-fleet-b"
	second.Seeds = 4
	for _, spec := range []*campaign.Spec{fleetSpec(), second} {
		st, code := submit(t, srv, specBody(t, spec))
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit = %d, want 202", spec.Name, code)
		}

		var sawLeases, sawDispatch bool
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			cur, ok := d.Status(st.ID)
			if !ok {
				t.Fatal("campaign vanished")
			}
			if cur.State.Terminal() {
				break
			}
			if cur.State == api.CampaignRunning && cur.Fleet != nil {
				data, _ := fetch(t, srv, "/metrics")
				leases := 0.0
				for state := coord.StatePending; state <= coord.StateMerged; state++ {
					v, ok := promValue(data, `lbcoord_leases{state="`+state.String()+`"}`)
					if !ok {
						t.Fatalf("%s: /metrics lacks the %s lease sample:\n%s", spec.Name, state, data)
					}
					leases += v
				}
				sawLeases = sawLeases || leases == 4
				if v, ok := promValue(data, "lbcoord_dispatches_total"); ok && v >= 1 {
					sawDispatch = true
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		if !sawLeases || !sawDispatch {
			t.Errorf("%s: mid-run /metrics: leases summing to 4 seen %v, dispatches >= 1 seen %v", spec.Name, sawLeases, sawDispatch)
		}

		fin := waitDone(t, srv, st.ID)
		if fin.State != api.CampaignDone {
			t.Fatalf("%s: final state = %s (%s)", spec.Name, fin.State, fin.Error)
		}
		gotJSON, code := fetch(t, srv, fin.Artifacts[KindJSON])
		if code != http.StatusOK {
			t.Fatalf("%s: artifact fetch = %d", spec.Name, code)
		}
		res, err := (&campaign.Engine{Workers: 4}).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: fleet artifact differs from the local engine run", spec.Name)
		}

		elog := filepath.Join(dir, "journals", st.ID+".fleet", spec.Name+coord.EventLogSuffix)
		hdr, events, err := coord.ReadEventLog(elog)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.ValidateEvents(hdr, events); err != nil {
			t.Fatal(err)
		}
		if hdr.Name != spec.Name || hdr.SpecHash != st.ID {
			t.Errorf("%s: event log header = %+v, want name %s spec %s", spec.Name, hdr, spec.Name, st.ID)
		}
		if events[len(events)-1].Type != coord.EvMerged {
			t.Errorf("%s: last event = %s, want merged", spec.Name, events[len(events)-1].Type)
		}
	}
}

// typedOnce fails the test when a family on an exposition page has a
// second TYPE line: the daemon composes its page from the lbfarmd_, lb_,
// lbfleet_ and lbcoord_ writers, so no single writer's output rules it
// out.
func typedOnce(t *testing.T, page []byte) {
	t.Helper()
	seen := map[string]bool{}
	for _, line := range strings.Split(string(page), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if seen[name] {
				t.Fatalf("family %s TYPE'd twice on the composed page:\n%s", name, page)
			}
			seen[name] = true
		}
	}
}

// promValue returns the value of the exposition sample whose series
// (name plus label set) is exactly series.
func promValue(data []byte, series string) (float64, bool) {
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

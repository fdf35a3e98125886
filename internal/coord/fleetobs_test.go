package coord

// Fleet observability must be a pure observer: carrying worker
// snapshots on the status poll, appending the event log, and writing fleetinfo may not
// change a byte of the artifacts. These tests run real chaos scenarios
// with every observability knob on and assert (a) byte-identity holds,
// (b) the event log reconstructs a killed range's full lease history,
// and (c) the merged fleet snapshot is the sum of the workers'.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// mustReadEvents reads and schema-validates an event log.
func mustReadEvents(t *testing.T, path string) (EventLogHeader, []Event) {
	t.Helper()
	hdr, events, err := ReadEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEvents(hdr, events); err != nil {
		t.Fatal(err)
	}
	return hdr, events
}

// TestFleetObsByteIdentity: the same campaign, engine parallelism 1, 2,
// and 8, with telemetry on every poll and the event log enabled — every
// merge must match the single-host baseline byte for byte.
func TestFleetObsByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(map[int]string{1: "w1", 2: "w2", 8: "w8"}[workers], func(t *testing.T) {
			c := mustNew(t, testConfig(t, 4))
			for _, id := range []string{"w1", "w2"} {
				ws, err := NewWorkerServer(WorkerConfig{
					ID: id, Dir: t.TempDir(), Workers: workers, Obs: obs.NewSet(workers), Logf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				hs := httptest.NewServer(ws.Handler())
				t.Cleanup(hs.Close)
				c.AddWorker(NewClient(id, hs.URL))
			}

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := c.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			checkArtifacts(t, res)
		})
	}
}

// TestFleetInfoSumsWorkers: with speculation off every trial runs on
// exactly one worker, so the merged fleet snapshot's trial counters must
// sum to the campaign's trial count, and the fleetinfo must list every
// worker as alive.
func TestFleetInfoSumsWorkers(t *testing.T) {
	c := mustNew(t, testConfig(t, 4))
	c.AddWorker(newHTTPWorker(t, "w1", Hooks{}, obs.NewSet(2)))
	c.AddWorker(newHTTPWorker(t, "w2", Hooks{}, obs.NewSet(2)))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	fi := c.FleetInfo()
	if fi.Obs == nil {
		t.Fatal("fleetinfo has no merged snapshot")
	}
	total := fi.Obs.Counters["trials_accepted"] + fi.Obs.Counters["trials_rejected"]
	if int(total) != len(res.Trials) {
		t.Errorf("fleet trial counters sum to %d, campaign ran %d trials", total, len(res.Trials))
	}
	if len(fi.Workers) != 2 {
		t.Fatalf("fleetinfo lists %d workers, want 2", len(fi.Workers))
	}
	for _, w := range fi.Workers {
		if !w.Alive {
			t.Errorf("worker %s reported dead after a clean run", w.ID)
		}
	}
	if fi.Coord["dispatches"] != int64(c.Stats().Dispatches) {
		t.Errorf("fleetinfo coord counters = %v, stats = %+v", fi.Coord, c.Stats())
	}

	// And the merged snapshot must render as the lbfleet_ families the
	// fleet executor's /metrics serves.
	var buf bytes.Buffer
	p := obs.NewPromWriter(&buf)
	p.Snapshot("lbfleet_", c.FleetSnapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"lbfleet_trials_accepted_total",
		"# TYPE lbfleet_stage_duration_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet snapshot exposition missing %q", want)
		}
	}
}

// TestEventLogKilledRange is the acceptance scenario: three workers,
// one SIGKILLed mid-range, and the event log alone must reconstruct the
// killed range's lease history — dispatch, burial, re-queue with
// backoff, re-dispatch, and the landing on a survivor.
func TestEventLogKilledRange(t *testing.T) {
	cfg := testConfig(t, 4)
	path := eventLogPath(cfg)
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

	hdr, events := mustReadEvents(t, path)
	if hdr.Splits != 4 {
		t.Fatalf("header splits = %d, want 4", hdr.Splits)
	}

	// Find the burial that carried a lease — that is the killed range.
	killed := -1
	for _, ev := range events {
		if ev.Type == EvWorkerDead && ev.Range != nil {
			killed = ev.Range.Index
			break
		}
	}
	if killed < 0 {
		t.Fatal("no worker_dead event with a leased range in the log")
	}

	hist := RangeHistory(events, killed)
	var kinds []string
	for _, ev := range hist {
		kinds = append(kinds, string(ev.Type))
	}
	got := strings.Join(kinds, ",")
	want := []EventType{EvDispatch, EvWorkerDead, EvRequeue, EvDispatch, EvShardLanded}
	i := 0
	for _, ev := range hist {
		if i < len(want) && ev.Type == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("killed range %d history = [%s], want the subsequence dispatch,worker_dead,requeue,dispatch,shard_landed", killed, got)
	}

	// The trace ID is range-stable across attempts; the span advances.
	var spans []string
	trace := ""
	for _, ev := range hist {
		if trace == "" {
			trace = ev.Trace
		} else if ev.Trace != trace {
			t.Fatalf("trace changed mid-range: %s then %s", trace, ev.Trace)
		}
		if ev.Type == EvDispatch {
			spans = append(spans, ev.Span)
		}
	}
	if len(spans) < 2 || spans[0] == spans[len(spans)-1] {
		t.Errorf("dispatch spans = %v, want distinct per attempt", spans)
	}
	for _, s := range spans {
		if !strings.HasPrefix(s, trace+"-") {
			t.Errorf("span %s does not extend trace %s", s, trace)
		}
	}

	// Every campaign log ends with the merge.
	if events[len(events)-1].Type != EvMerged {
		t.Errorf("last event is %s, want merged", events[len(events)-1].Type)
	}
}

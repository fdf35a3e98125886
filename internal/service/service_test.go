package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/obs"
)

// testSpec is a small, fast sweep: one cell, `seeds` trials.
func testSpec(seeds int) *campaign.Spec {
	return &campaign.Spec{
		Name:        "svc-test",
		Seeds:       seeds,
		Tasks:       []int{20},
		Utilization: []float64{2.5},
		Procs:       []int{4},
		Policies:    []string{"lexicographic"},
	}
}

func specBody(t *testing.T, spec *campaign.Spec) []byte {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newDaemon builds (but does not Start) a daemon over a fresh temp
// store.
func newDaemon(t *testing.T, dir string, hooks Hooks) *Daemon {
	t.Helper()
	store, err := OpenFSStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Store:         store,
		JournalDir:    filepath.Join(dir, "journals"),
		Workers:       2,
		ProgressEvery: 10 * time.Millisecond,
		Hooks:         hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// submit POSTs a spec and decodes the response status.
func submit(t *testing.T, srv *httptest.Server, body []byte) (api.CampaignStatus, int) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return api.CampaignStatus{}, resp.StatusCode
	}
	var st api.CampaignStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding submit response: %v\n%s", err, data)
	}
	return st, resp.StatusCode
}

// waitDone polls the campaign until it reaches a terminal state.
func waitDone(t *testing.T, srv *httptest.Server, id string) api.CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st api.CampaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s never finished", id)
	return api.CampaignStatus{}
}

// fetch GETs one path and returns body + status code.
func fetch(t *testing.T, srv *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

// readSSE consumes the campaign's event stream until the terminal
// status frame, returning every decoded event.
func readSSE(t *testing.T, srv *httptest.Server, id string) []api.Event {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var evs []api.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev api.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("decoding SSE frame: %v\n%s", err, data)
			}
			evs = append(evs, ev)
			if ev.Type == api.EventStatus && ev.Status != nil && ev.Status.State.Terminal() {
				return evs
			}
		}
	}
	t.Fatalf("stream ended without a terminal status (got %d events): %v", len(evs), sc.Err())
	return nil
}

// TestEndToEnd is the service e2e: submit → stream events → fetch
// artifacts, and the served bytes are identical to a direct engine run
// of the same spec.
func TestEndToEnd(t *testing.T) {
	d := newDaemon(t, t.TempDir(), Hooks{})
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	d.Start()

	spec := testSpec(4)
	st, code := submit(t, srv, specBody(t, spec))
	if code != http.StatusAccepted {
		t.Fatalf("submit code = %d, want 202", code)
	}
	if st.State != api.CampaignQueued && st.State != api.CampaignRunning {
		t.Fatalf("state = %s", st.State)
	}
	if st.Total != 4 {
		t.Fatalf("total = %d, want 4", st.Total)
	}

	evs := readSSE(t, srv, st.ID)
	last := evs[len(evs)-1]
	if last.Status.State != api.CampaignDone {
		t.Fatalf("final state = %s (%s)", last.Status.State, last.Status.Error)
	}
	if last.Status.Done != 4 || last.Status.Artifacts[KindJSON] == "" {
		t.Fatalf("final status: %+v", last.Status)
	}
	// Event sequence numbers are strictly increasing within the live
	// stream (the drop detector).
	var prev int64
	for _, ev := range evs[1:] { // evs[0] is the synthetic opener, seq 0
		if ev.Seq <= prev {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, prev)
		}
		prev = ev.Seq
	}

	gotJSON, code := fetch(t, srv, last.Status.Artifacts[KindJSON])
	if code != http.StatusOK {
		t.Fatalf("artifact fetch = %d", code)
	}
	gotCSV, _ := fetch(t, srv, last.Status.Artifacts[KindCSV])
	riData, code := fetch(t, srv, last.Status.Artifacts[KindRunInfo])
	var ri obs.RunInfo
	if err := json.Unmarshal(riData, &ri); code != http.StatusOK || err != nil || ri.Tool != "lbfarmd" || ri.Trials != 4 {
		t.Fatalf("runinfo fetch = %d (%v), want lbfarmd's over 4 trials: %s", code, err, riData)
	}

	// Byte-identity against a direct, in-process engine run.
	res, err := (&campaign.Engine{Workers: 2}).Run(testSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("served JSON artifact differs from a direct engine run")
	}
	var wantCSV bytes.Buffer
	if err := res.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
		t.Fatal("served CSV artifact differs from a direct engine run")
	}
}

// TestDuplicateSubmitCached pins the acceptance criterion: submitting
// the same spec twice serves the second from the cache, byte-identical,
// with zero trials re-executed.
func TestDuplicateSubmitCached(t *testing.T) {
	d := newDaemon(t, t.TempDir(), Hooks{})
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	d.Start()

	body := specBody(t, testSpec(3))
	st1, code := submit(t, srv, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	waitDone(t, srv, st1.ID)
	first, _ := fetch(t, srv, "/v1/artifacts/"+st1.ID+".json")
	executed := d.Stats().TrialsExecuted
	if executed != 3 {
		t.Fatalf("executed = %d, want 3", executed)
	}

	st2, code := submit(t, srv, body)
	if code != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200", code)
	}
	if !st2.Cached || st2.State != api.CampaignDone || st2.ID != st1.ID {
		t.Fatalf("duplicate status: %+v", st2)
	}
	second, _ := fetch(t, srv, st2.Artifacts[KindJSON])
	if !bytes.Equal(first, second) {
		t.Fatal("cached artifact is not byte-identical")
	}
	if got := d.Stats().TrialsExecuted; got != executed {
		t.Fatalf("duplicate submit re-executed trials: %d → %d", executed, got)
	}
	if d.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", d.Stats().CacheHits)
	}
}

// TestStaleMarkerRecomputed: an artifact set whose .ok marker a build of
// an older journal schema wrote (version 3 wrote the kind list alone) is
// never served from the cache. The restarted daemon recomputes it, and a
// re-submission is then answered from the fresh set.
func TestStaleMarkerRecomputed(t *testing.T) {
	dir := t.TempDir()
	body := specBody(t, testSpec(3))
	d1 := newDaemon(t, dir, Hooks{})
	d1.Start()
	st, err := d1.Submit(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(d1.Handler())
	waitDone(t, srv1, st.ID)
	first, _ := fetch(t, srv1, "/v1/artifacts/"+st.ID+".json")
	srv1.Close()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	marker := filepath.Join(dir, "data", "artifacts", st.ID+".ok")
	data, err := os.ReadFile(marker)
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 || fields[0] != markerTag {
		t.Fatalf("marker %q does not lead with %s", data, markerTag)
	}
	if err := os.WriteFile(marker, []byte(strings.Join(fields[1:], " ")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := newDaemon(t, dir, Hooks{})
	defer d2.Close()
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	if _, code := fetch(t, srv2, "/v1/artifacts/"+st.ID+".json"); code != http.StatusNotFound {
		t.Fatalf("stale set served before the re-run: status %d", code)
	}
	d2.Start()
	if fin := waitDone(t, srv2, st.ID); fin.State != api.CampaignDone {
		t.Fatalf("final state = %s (%s)", fin.State, fin.Error)
	}
	if got := d2.Stats().TrialsExecuted; got != 3 {
		t.Fatalf("restarted daemon executed %d trials, want the 3 of the stale set", got)
	}
	st2, code := submit(t, srv2, body)
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("re-submission after the recompute = %d %+v, want a cache hit", code, st2)
	}
	if second, _ := fetch(t, srv2, st2.Artifacts[KindJSON]); !bytes.Equal(first, second) {
		t.Fatal("recomputed artifact differs from the first run")
	}
}

// TestRestartResume pins journal-backed durability: a daemon killed
// mid-campaign restarts, resumes from the journal, executes only the
// missing trials, and the final artifact is byte-identical to an
// uninterrupted run.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	const seeds = 8

	// First daemon: drain after 3 journaled trials. The sink blocks once
	// the third trial lands and is released only after Close has begun
	// draining, so the engine deterministically observes the stop — the
	// campaign cannot race to completion first.
	var once sync.Once
	reached := make(chan struct{})
	release := make(chan struct{})
	d1 := newDaemon(t, dir, Hooks{SinkTick: func(id string, done int) {
		if done >= 3 {
			once.Do(func() { close(reached) })
			<-release
		}
	}})
	d1.Start()
	st, err := d1.Submit(bytes.NewReader(specBody(t, testSpec(seeds))))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("never reached 3 journaled trials")
	}
	closeErr := make(chan error, 1)
	go func() { closeErr <- d1.Close() }()
	// Draining is visible the moment admissions are refused.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := d1.Submit(bytes.NewReader(specBody(t, testSpec(seeds)))); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	if d1.Interrupted() != 1 {
		t.Fatalf("interrupted = %d, want 1", d1.Interrupted())
	}
	ran1 := d1.Stats().TrialsExecuted
	if ran1 < 3 || ran1 >= seeds {
		t.Fatalf("first daemon executed %d of %d", ran1, seeds)
	}
	// The interrupted campaign reverted to queued on disk.
	if got, _ := d1.Status(st.ID); got.State != api.CampaignQueued {
		t.Fatalf("state after drain = %s, want queued", got.State)
	}

	// Second daemon over the same store and journals: recovers the
	// record, replays the journal, runs only the remainder.
	d2 := newDaemon(t, dir, Hooks{})
	defer d2.Close()
	srv := httptest.NewServer(d2.Handler())
	defer srv.Close()
	if got, ok := d2.Status(st.ID); !ok || got.State != api.CampaignQueued {
		t.Fatalf("recovered state = %+v, %v", got, ok)
	}
	d2.Start()
	fin := waitDone(t, srv, st.ID)
	if fin.State != api.CampaignDone {
		t.Fatalf("final state = %s (%s)", fin.State, fin.Error)
	}
	ran2 := d2.Stats().TrialsExecuted
	if ran1+ran2 != seeds {
		t.Fatalf("executed %d + %d trials, want %d total (no re-execution)", ran1, ran2, seeds)
	}

	// Byte-identity across the interruption.
	got, code := fetch(t, srv, fin.Artifacts[KindJSON])
	if code != http.StatusOK {
		t.Fatalf("artifact fetch = %d", code)
	}
	res, err := (&campaign.Engine{Workers: 2}).Run(testSpec(seeds))
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed artifact differs from an uninterrupted run")
	}
}

// TestResumeTornJournal: a daemon that finds a campaign's journal cut
// mid-record (the tail a crash leaves) truncates the torn record,
// counts the repair in the campaign's runinfo (torn_repairs), re-runs
// only the lost trial, and serves the bytes of an uninterrupted run.
func TestResumeTornJournal(t *testing.T) {
	dir := t.TempDir()
	const seeds = 6
	spec := testSpec(seeds)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	id, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := journal.NewHeader(spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	jdir := filepath.Join(dir, "journals")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(jdir, id+".jsonl")
	w, err := journal.Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&campaign.Engine{Workers: 2, Sink: w.Append}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	d := newDaemon(t, dir, Hooks{})
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	d.Start()
	st, code := submit(t, srv, specBody(t, spec))
	if code != http.StatusAccepted || st.ID != id {
		t.Fatalf("submit = %d, id %s; want 202, id %s", code, st.ID, id)
	}
	fin := waitDone(t, srv, id)
	if fin.State != api.CampaignDone {
		t.Fatalf("final state = %s (%s)", fin.State, fin.Error)
	}
	if ran := d.Stats().TrialsExecuted; ran != 1 {
		t.Fatalf("executed %d trials, want only the torn one", ran)
	}
	riData, code := fetch(t, srv, fin.Artifacts[KindRunInfo])
	if code != http.StatusOK {
		t.Fatalf("runinfo fetch = %d", code)
	}
	var ri obs.RunInfo
	if err := json.Unmarshal(riData, &ri); err != nil {
		t.Fatal(err)
	}
	if got := ri.Obs.Counters[obs.CounterTornRepairs.String()]; got != 1 {
		t.Fatalf("runinfo torn_repairs = %d, want 1", got)
	}
	got, code := fetch(t, srv, fin.Artifacts[KindJSON])
	if code != http.StatusOK {
		t.Fatalf("artifact fetch = %d", code)
	}
	want, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact after a torn-tail resume differs from an uninterrupted run")
	}
}

// TestQueueFull: admissions beyond the queue capacity are refused with
// the queue_full envelope. The daemon is never Started, so the queue
// cannot drain under the test.
func TestQueueFull(t *testing.T) {
	store, err := OpenFSStore(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Store:      store,
		JournalDir: filepath.Join(t.TempDir(), "journals"),
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	if _, code := submit(t, srv, specBody(t, testSpec(2))); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	other := testSpec(3)
	other.Name = "svc-test-2"
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(specBody(t, other)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d: %s", resp.StatusCode, body)
	}
	ae := api.ReadError(resp.StatusCode, body)
	if ae.Code != api.CodeQueueFull {
		t.Fatalf("code = %q, want queue_full", ae.Code)
	}
}

// TestErrorEnvelopes: unknown campaigns, artifacts, and malformed
// specs all answer with the shared envelope.
func TestErrorEnvelopes(t *testing.T) {
	d := newDaemon(t, t.TempDir(), Hooks{})
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for _, path := range []string{"/v1/campaigns/nope", "/v1/campaigns/nope/events", "/v1/artifacts/nope.json", "/v1/artifacts/nope.xyz"} {
		data, code := fetch(t, srv, path)
		if code != http.StatusNotFound {
			t.Fatalf("%s = %d", path, code)
		}
		if ae := api.ReadError(code, data); ae.Code != api.CodeNotFound {
			t.Fatalf("%s: code %q body %s", path, ae.Code, data)
		}
	}

	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(`{"nope":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d", resp.StatusCode)
	}
	if ae := api.ReadError(resp.StatusCode, body); ae.Code != api.CodeBadRequest {
		t.Fatalf("code = %q", ae.Code)
	}
}

// TestFSStoreAtomicity: an artifact set without its completion marker
// is invisible — to the live index and to a reopened store — so a
// crash mid-put re-runs the campaign instead of serving a torn cache.
func TestFSStoreAtomicity(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifacts("aaa", map[string][]byte{KindJSON: []byte(`{}`), KindCSV: []byte("x\n")}); err != nil {
		t.Fatal(err)
	}
	if !s.HasArtifacts("aaa") {
		t.Fatal("complete set not visible")
	}
	got, err := s.GetArtifact("aaa", KindCSV)
	if err != nil || string(got) != "x\n" {
		t.Fatalf("get: %v %q", err, got)
	}
	// A torn set: artifact file present, no marker.
	if err := os.WriteFile(filepath.Join(dir, "artifacts", "bbb.json"), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.HasArtifacts("bbb") {
		t.Fatal("torn set visible")
	}
	if _, err := s.GetArtifact("bbb", KindJSON); !os.IsNotExist(err) {
		t.Fatalf("torn get: %v", err)
	}

	// Reopen: the index rebuilds to the same view.
	s2, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.HasArtifacts("aaa") || s2.HasArtifacts("bbb") {
		t.Fatal("reopened index differs")
	}

	// Records round-trip.
	rec := Record{ID: "aaa", Name: "n", State: api.CampaignDone, SubmittedAt: time.Now().UTC(), Spec: json.RawMessage(`{"name":"n"}`)}
	if err := s2.PutRecord(rec); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s3.Records()
	if err != nil || len(recs) != 1 || recs[0].ID != "aaa" || recs[0].State != api.CampaignDone {
		t.Fatalf("records: %v %+v", err, recs)
	}
}

// TestMetrics: the daemon's /metrics page composes the lbfarmd_ control
// families with the lb_ telemetry of the running campaign, so mid-run it
// carries both and must TYPE each family once; after the run the
// counters read the executed trials, and a duplicate submission moves
// only the cache-hit counter.
func TestMetrics(t *testing.T) {
	var once sync.Once
	reached, release := make(chan struct{}), make(chan struct{})
	d := newDaemon(t, t.TempDir(), Hooks{SinkTick: func(string, int) {
		once.Do(func() { close(reached); <-release })
	}})
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	d.Start()

	body := specBody(t, testSpec(2))
	st, _ := submit(t, srv, body)
	<-reached
	data, code := fetch(t, srv, "/metrics")
	close(release)
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	typedOnce(t, data)
	if v, ok := promValue(data, "lbfarmd_running"); !ok || v != 1 {
		t.Fatalf("mid-run lbfarmd_running = %v (present %v), want 1:\n%s", v, ok, data)
	}
	if _, ok := promValue(data, "lb_elapsed_seconds"); !ok {
		t.Fatalf("mid-run page lacks the campaign's lb_ telemetry:\n%s", data)
	}
	waitDone(t, srv, st.ID)
	if _, code := submit(t, srv, body); code != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200", code)
	}

	data, _ = fetch(t, srv, "/metrics")
	typedOnce(t, data)
	for _, family := range []string{
		"lbfarmd_queue_depth", "lbfarmd_running", "lbfarmd_submissions_total",
		"lbfarmd_cache_hits_total", "lbfarmd_trials_executed_total",
		"lbfarmd_campaigns_done_total", "lbfarmd_campaigns_failed_total",
	} {
		if !bytes.Contains(data, []byte("# TYPE "+family+" ")) {
			t.Fatalf("missing family %s in:\n%s", family, data)
		}
	}
	for series, want := range map[string]float64{"lbfarmd_trials_executed_total": 2, "lbfarmd_cache_hits_total": 1} {
		if v, ok := promValue(data, series); !ok || v != want {
			t.Fatalf("%s = %v, want %v:\n%s", series, v, want, data)
		}
	}

	vars, code := fetch(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars = %d", code)
	}
	var v map[string]any
	if err := json.Unmarshal(vars, &v); err != nil {
		t.Fatal(err)
	}
	if _, ok := v["lbfarmd"]; !ok {
		t.Fatalf("/debug/vars missing lbfarmd: %s", vars)
	}
}

// TestServerLimits serves the daemon through obs.NewServer with its
// read timeout cut to 100ms: a body one byte over api.MaxBody is
// refused with the bad_request envelope, and an event stream outlives
// the read deadline (its campaign only starts after the deadline).
func TestServerLimits(t *testing.T) {
	d := newDaemon(t, t.TempDir(), Hooks{})
	defer d.Close()
	srv := httptest.NewUnstartedServer(nil)
	srv.Config = obs.NewServer(d.Handler())
	srv.Config.ReadTimeout = 100 * time.Millisecond
	srv.Start()
	defer srv.Close()

	body := specBody(t, testSpec(4))
	big := append(body, bytes.Repeat([]byte(" "), api.MaxBody+1-len(body))...)
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ae := api.ReadError(resp.StatusCode, data); resp.StatusCode != http.StatusBadRequest || ae.Code != api.CodeBadRequest || !strings.Contains(ae.Message, "exceeds") {
		t.Fatalf("oversize body = %d %s", resp.StatusCode, data)
	}

	st, code := submit(t, srv, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	time.AfterFunc(300*time.Millisecond, d.Start)
	evs := readSSE(t, srv, st.ID)
	if last := evs[len(evs)-1].Status; last.State != api.CampaignDone {
		t.Fatalf("stream ended in state %s", last.State)
	}
}

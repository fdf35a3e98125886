package main

// Process-level fault tests: these re-exec the test binary as real
// lbfarm processes (TestMain below) so signals, exit codes, and the
// coordinator/worker HTTP plumbing are exercised exactly as deployed —
// no in-process shortcuts on the paths whose whole point is surviving
// process death.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestMain lets the test binary impersonate the lbfarm CLI: a child
// process started with LBFARM_BE_MAIN=1 runs main() on its argv instead
// of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("LBFARM_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syncBuffer is a bytes.Buffer the test may read while the child
// process writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// farm builds a re-exec'd lbfarm process (not started).
func farm(t *testing.T, args ...string) (*exec.Cmd, *syncBuffer, *syncBuffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LBFARM_BE_MAIN=1")
	var stdout, stderr syncBuffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	return cmd, &stdout, &stderr
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// grid is the shared sweep of these tests: big enough that a signal
// reliably lands mid-run, small enough to finish promptly.
func gridArgs(name, journal, out string) []string {
	return []string{
		"-name", name, "-tasks", "12", "-util", "1.5", "-procs", "2,3",
		"-policies", "lexicographic,memory-only", "-seeds", "400",
		"-workers", "2", "-journal", journal, "-out", out,
	}
}

// TestInterruptDrainsAndResumes: SIGINT mid-sweep must drain (exit code
// 3, journal tail synced, resume command printed), and resuming must
// finish the sweep with artifacts byte-identical to an uninterrupted
// run without telemetry (which writes no runinfo sidecar) and to the
// lbmerge-style fold of three -shard journals. While the interrupted
// run is live, its -debug-addr serves /debug/vars and /debug/pprof/.
func TestInterruptDrainsAndResumes(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "sig.jsonl")
	outDir := filepath.Join(dir, "out")

	cmd, stdout, stderr := farm(t, append(gridArgs("sig", jpath, outDir), "-debug-addr", "127.0.0.1:0")...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	debugAt := regexp.MustCompile(`debug endpoints on http://(\S+)/debug/vars`)
	var addr []string
	waitUntil(t, "the debug address", func() bool {
		addr = debugAt.FindStringSubmatch(stderr.String())
		return addr != nil
	})
	vars, code := httpDo(t, http.MethodGet, "http://"+addr[1]+"/debug/vars", nil)
	var v struct {
		Lbfarm struct {
			Name     string
			SpecHash string `json:"spec_hash"`
		}
		Obs struct{ Stages map[string]any }
	}
	if err := json.Unmarshal(vars, &v); code != http.StatusOK || err != nil || v.Lbfarm.Name != "sig" || v.Lbfarm.SpecHash == "" || v.Obs.Stages == nil {
		t.Fatalf("/debug/vars = %d (%v): %s", code, err, vars)
	}
	if page, code := httpDo(t, http.MethodGet, "http://"+addr[1]+"/debug/pprof/", nil); code != http.StatusOK || !bytes.Contains(page, []byte("profile")) {
		t.Fatalf("/debug/pprof/ = %d: %s", code, page)
	}
	// Wait for the journal to hold the header and at least one row, then
	// interrupt.
	waitUntil(t, "journaled rows", func() bool {
		fi, err := os.Stat(jpath)
		return err == nil && fi.Size() > 512
	})
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != exitInterrupted {
		t.Fatalf("interrupted run: err %v (stderr: %s), want exit code %d", err, stderr, exitInterrupted)
	}
	if !strings.Contains(stdout.String(), "resume with: ") || !strings.Contains(stdout.String(), "-resume") {
		t.Fatalf("no resume command printed; stdout: %s", stdout)
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Fatalf("no drain notice; stderr: %s", stderr)
	}

	// Resume to completion.
	cmd2, _, stderr2 := farm(t, append(gridArgs("sig", jpath, outDir), "-resume")...)
	if err := cmd2.Run(); err != nil {
		t.Fatalf("resumed run: %v (stderr: %s)", err, stderr2)
	}
	if !strings.Contains(stderr2.String(), "resuming") {
		t.Fatalf("resumed run did not pick up the journal; stderr: %s", stderr2)
	}
	ri, err := obs.ReadRunInfo(filepath.Join(outDir, "sig"+obs.RunInfoSuffix))
	if err != nil {
		t.Fatalf("observed run's runinfo sidecar: %v", err)
	}
	if c := ri.Obs.Counters; ri.Schema != obs.RunInfoSchema || ri.Tool != "lbfarm" || ri.SpecHash == "" || ri.Trials != 1600 ||
		c["trials_accepted"]+c["trials_rejected"]+c["replayed_trials"] != 1600 {
		t.Errorf("runinfo: schema %d tool %q spec %q trials %d counters %v, want lbfarm's over 1600 trials",
			ri.Schema, ri.Tool, ri.SpecHash, ri.Trials, c)
	}

	// Byte-identity against an uninterrupted run of the same sweep.
	refDir := filepath.Join(dir, "ref")
	cmd3, _, stderr3 := farm(t, append(gridArgs("sig", filepath.Join(dir, "ref.jsonl"), refDir), "-obs=false")...)
	if err := cmd3.Run(); err != nil {
		t.Fatalf("reference run: %v (stderr: %s)", err, stderr3)
	}
	if _, err := os.Stat(filepath.Join(refDir, "sig"+obs.RunInfoSuffix)); !os.IsNotExist(err) {
		t.Errorf("-obs=false run wrote a runinfo sidecar (stat: %v)", err)
	}
	var shards []string
	for i := 1; i <= 3; i++ {
		shards = append(shards, filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i)))
		cmd, _, stderr := farm(t, append(gridArgs("sig", shards[i-1], refDir), "-shard", fmt.Sprintf("%d/3", i))...)
		if err := cmd.Run(); err != nil {
			t.Fatalf("shard %d/3: %v (stderr: %s)", i, err, stderr)
		}
	}
	merged, err := journal.Merge(shards)
	if err != nil {
		t.Fatal(err)
	}
	mergedJSON, err := merged.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var mergedCSV bytes.Buffer
	if err := merged.WriteCSV(&mergedCSV); err != nil {
		t.Fatal(err)
	}
	for f, other := range map[string][]byte{"sig.json": mergedJSON, "sig.csv": mergedCSV.Bytes()} {
		got, err := os.ReadFile(filepath.Join(outDir, f))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(refDir, f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(other, want) {
			t.Errorf("%s differs between the resumed, uninterrupted and merged-shard runs", f)
		}
	}
}

// TestDistributedWorkerSIGKILL is the acceptance scenario end to end: a
// 3-worker fleet campaign with one worker SIGKILLed mid-range must
// finish unattended on the survivors and produce artifacts
// byte-identical to a single-host run. Workers are real re-exec'd
// lbfarm -worker processes registering over real HTTP against the mux
// lbfarmd -fleet serves; the daemon runs in-process so the test can
// watch the campaign's live lease table.
func TestDistributedWorkerSIGKILL(t *testing.T) {
	spec := &campaign.Spec{
		Name:        "dist",
		Seeds:       120,
		Tasks:       []int{60},
		Utilization: []float64{2.5},
		Procs:       []int{4},
		Policies:    []string{"lexicographic"},
	}
	ref, err := (&campaign.Engine{Workers: 4}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := ref.WriteCSV(&refCSV); err != nil {
		t.Fatal(err)
	}

	opts := coord.DefaultOptions()
	opts.Splits = 4
	opts.Liveness = 400 * time.Millisecond
	opts.Poll = 25 * time.Millisecond
	opts.MaxAttempts = 8
	opts.Backoff.Base = 20 * time.Millisecond
	opts.Backoff.Max = 100 * time.Millisecond
	opts.Backoff.Jitter = 0
	opts.Straggler.Disabled = true
	dir := t.TempDir()
	store, err := service.OpenFSStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	journals := filepath.Join(dir, "journals")
	reg := coord.NewRegistry(nil, t.Logf)
	d, err := service.New(service.Config{
		Store:      store,
		JournalDir: journals,
		Executor:   service.NewFleetExecutor(reg, opts, journals, t.Logf),
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hs := httptest.NewServer(d.Handler())
	defer hs.Close()
	d.Start()

	workers := map[string]*exec.Cmd{}
	logs := map[string]*syncBuffer{}
	workerDirs := t.TempDir()
	for _, id := range []string{"w1", "w2", "w3"} {
		cmd, _, stderr := farm(t,
			"-worker", "-listen", "127.0.0.1:0", "-coord", hs.URL,
			"-worker-dir", filepath.Join(workerDirs, id), "-worker-id", id,
			"-heartbeat", "100ms", "-workers", "1")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		workers[id], logs[id] = cmd, stderr
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			if t.Failed() {
				t.Logf("worker %s stderr:\n%s", id, stderr)
			}
		})
	}
	waitUntil(t, "3 registered workers", func() bool { return reg.Size() == 3 })

	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, code := httpDo(t, http.MethodPost, hs.URL+"/v1/campaigns", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202: %s", code, resp)
	}
	var st api.CampaignStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatal(err)
	}

	// SIGKILL the first worker seen mid-range: it has journaled at least
	// one trial of its lease and is nowhere near done.
	var victim string
	waitUntil(t, "a worker mid-range", func() bool {
		cur, ok := d.Status(st.ID)
		if !ok || cur.Fleet == nil {
			return false
		}
		for _, w := range cur.Fleet.Workers {
			if w.State == string(coord.JobRunning) && w.Done >= 1 && w.Done < w.Total {
				victim = w.ID
				return true
			}
		}
		return false
	})
	if err := workers[victim].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	t.Logf("SIGKILLed %s mid-range", victim)

	waitUntil(t, "the campaign to finish", func() bool {
		cur, ok := d.Status(st.ID)
		return ok && cur.State.Terminal()
	})
	fin, _ := d.Status(st.ID)
	if fin.State != api.CampaignDone {
		t.Fatalf("final state = %s (%s)", fin.State, fin.Error)
	}
	artifact := func(kind string) []byte {
		data, code := httpDo(t, http.MethodGet, hs.URL+fin.Artifacts[kind], nil)
		if code != http.StatusOK {
			t.Fatalf("%s artifact fetch = %d: %s", kind, code, data)
		}
		return data
	}
	for kind, want := range map[string][]byte{service.KindJSON: refJSON, service.KindCSV: refCSV.Bytes()} {
		if !bytes.Equal(artifact(kind), want) {
			t.Fatalf("fleet %s artifact differs from the single-host run", kind)
		}
	}
	var fi obs.FleetInfo
	if err := json.Unmarshal(artifact(service.KindFleetInfo), &fi); err != nil {
		t.Fatal(err)
	}
	if fi.Schema != obs.FleetInfoSchema || fi.Tool != "lbfarmd" || fi.Shards != 4 || fi.SpecHash != st.ID {
		t.Errorf("fleetinfo identity: schema %d tool %q shards %d spec %q", fi.Schema, fi.Tool, fi.Shards, fi.SpecHash)
	}
	alive := 0
	for _, w := range fi.Workers {
		if w.Alive {
			alive++
		}
	}
	if len(fi.Workers) != 3 || alive != 2 {
		t.Errorf("fleetinfo workers = %+v, want 3 with the victim dead", fi.Workers)
	}
	if fi.Coord["workers_dead"] != 1 || fi.Coord["requeues"] < 1 || fi.Coord["dispatches"] < 4 {
		t.Errorf("coord counters = %v, want 1 dead worker, >= 1 requeue, >= 4 dispatches", fi.Coord)
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if _, ok := fi.Obs.Stages[st.String()]; !ok {
			t.Errorf("merged fleet snapshot lacks stage %s", st)
		}
	}
	if fi.Obs.Counters["trials_accepted"] == 0 {
		t.Error("merged fleet snapshot counted no accepted trials")
	}
	// A survivor serves its local telemetry on its job port.
	survivor := map[string]string{"w1": "w2", "w2": "w3", "w3": "w1"}[victim]
	at := regexp.MustCompile(`serving jobs on (\S+)`).FindStringSubmatch(logs[survivor].String())
	if at == nil {
		t.Fatalf("worker %s logged no job address", survivor)
	}
	if page, code := httpDo(t, http.MethodGet, "http://"+at[1]+"/metrics", nil); code != http.StatusOK ||
		!bytes.Contains(page, []byte("\nlb_elapsed_seconds ")) || !bytes.Contains(page, []byte("\nlb_stage_duration_seconds_bucket{")) {
		t.Errorf("worker %s /metrics = %d:\n%s", survivor, code, page)
	}
	// Every job sidecar a worker left carries the dispatch's trace.
	sidecars, _ := filepath.Glob(filepath.Join(workerDirs, "*", "*"+obs.RunInfoSuffix))
	if len(sidecars) == 0 {
		t.Error("no worker wrote a runinfo sidecar")
	}
	for _, p := range sidecars {
		ri, err := obs.ReadRunInfo(p)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Trace == "" || !strings.HasPrefix(ri.Span, ri.Trace+"-") {
			t.Errorf("%s: trace %q span %q, want a span of the trace", p, ri.Trace, ri.Span)
		}
	}
}

// httpDo sends body (nil for none) and returns the response body and
// status code.
func httpDo(t *testing.T, method, url string, body []byte) ([]byte, int) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

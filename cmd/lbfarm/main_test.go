package main

// Process-level fault tests: these re-exec the test binary as real
// lbfarm processes (TestMain below) so signals, exit codes, and the
// coordinator/worker HTTP plumbing are exercised exactly as deployed —
// no in-process shortcuts on the paths whose whole point is surviving
// process death.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/coord"
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

// farm builds a re-exec'd lbfarm process (not started).
func farm(t *testing.T, args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LBFARM_BE_MAIN=1")
	var stdout, stderr bytes.Buffer
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
// run.
func TestInterruptDrainsAndResumes(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "sig.jsonl")
	outDir := filepath.Join(dir, "out")

	cmd, stdout, stderr := farm(t, gridArgs("sig", jpath, outDir)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
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

	// Byte-identity against an uninterrupted run of the same sweep.
	refDir := filepath.Join(dir, "ref")
	cmd3, _, stderr3 := farm(t, gridArgs("sig", filepath.Join(dir, "ref.jsonl"), refDir)...)
	if err := cmd3.Run(); err != nil {
		t.Fatalf("reference run: %v (stderr: %s)", err, stderr3)
	}
	for _, f := range []string{"sig.json", "sig.csv"} {
		got, err := os.ReadFile(filepath.Join(outDir, f))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(refDir, f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the resumed and uninterrupted runs", f)
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
	for _, id := range []string{"w1", "w2", "w3"} {
		cmd, _, stderr := farm(t,
			"-worker", "-listen", "127.0.0.1:0", "-coord", hs.URL,
			"-worker-dir", t.TempDir(), "-worker-id", id,
			"-heartbeat", "100ms", "-workers", "1")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		workers[id] = cmd
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
	if fi.Coord["workers_dead"] != 1 {
		t.Errorf("dead workers = %d, want 1", fi.Coord["workers_dead"])
	}
	if fi.Coord["requeues"] < 1 {
		t.Errorf("requeues = %d, want >= 1", fi.Coord["requeues"])
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

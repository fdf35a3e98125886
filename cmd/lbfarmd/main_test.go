package main

// Process-level test: the test binary re-execs itself as lbfarmd
// (TestMain below), so the signal handling, the exit status and the
// restart are the daemon's own.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
)

// TestMain lets the test binary impersonate the lbfarmd CLI: a child
// process started with LBFARMD_BE_MAIN=1 runs main() on its argv.
func TestMain(m *testing.M) {
	if os.Getenv("LBFARMD_BE_MAIN") == "1" {
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

// daemon starts a re-exec'd lbfarmd over dataDir on a free loopback
// port and returns the process, its stderr and its base URL.
func daemon(t *testing.T, dataDir string) (*exec.Cmd, *syncBuffer, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-data", dataDir, "-workers", "1")
	cmd.Env = append(os.Environ(), "LBFARMD_BE_MAIN=1")
	stderr := &syncBuffer{}
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		if t.Failed() {
			t.Logf("lbfarmd stderr:\n%s", stderr)
		}
	})
	serving := regexp.MustCompile(`serving campaign API on (\S+)`)
	var m []string
	waitUntil(t, "the API address", func() bool {
		m = serving.FindStringSubmatch(stderr.String())
		return m != nil
	})
	return cmd, stderr, "http://" + m[1]
}

func status(t *testing.T, base, id string) api.CampaignStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSIGTERMDrainsAndRestartResumes: SIGTERM while a campaign runs
// drains the daemon with exit code 3, and a daemon restarted on the same
// data directory resumes the campaign from its journal and finishes it.
func TestSIGTERMDrainsAndRestartResumes(t *testing.T) {
	data := t.TempDir()
	cmd, _, base := daemon(t, data)
	spec := `{"name":"long","seeds":600,"tasks":[60],"utilization":[2.5],"procs":[4],"policies":["lexicographic"]}`
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st api.CampaignStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%v), want 202", resp.StatusCode, err)
	}
	waitUntil(t, "a journaled trial", func() bool {
		cur := status(t, base, st.ID)
		return cur.State == api.CampaignRunning && cur.Done >= 1
	})
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitInterrupted {
		t.Fatalf("drained daemon: %v, want exit code %d", err, exitInterrupted)
	}

	_, stderr, base := daemon(t, data)
	waitUntil(t, "the resumed campaign to finish", func() bool { return status(t, base, st.ID).State.Terminal() })
	if fin := status(t, base, st.ID); fin.State != api.CampaignDone || fin.Done != 600 {
		t.Fatalf("resumed campaign: state %s, %d of 600 trials (%s)", fin.State, fin.Done, fin.Error)
	}
	if !strings.Contains(stderr.String(), "resuming, ") {
		t.Fatal("the restarted daemon did not resume the campaign's journal")
	}
	resp, err = http.Get(base + "/v1/artifacts/" + st.ID + ".json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch = %d", resp.StatusCode)
	}
}

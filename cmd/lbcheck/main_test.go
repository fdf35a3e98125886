package main

// Process-level tests, one per mode: the test binary re-execs itself as
// lbcheck (TestMain below), so the output and the exit status are the
// CLI's own.

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMain lets the test binary impersonate the lbcheck CLI: a child
// process started with LBCHECK_BE_MAIN=1 runs main() on its argv.
func TestMain(m *testing.M) {
	if os.Getenv("LBCHECK_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lbcheck runs a re-exec'd lbcheck and returns its combined output and
// exit code.
func lbcheck(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LBCHECK_BE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestEventLog: -eventlog verifies the committed v1 event-log fixture
// and prints its per-type event counts.
func TestEventLog(t *testing.T) {
	out, code := lbcheck(t, "-eventlog", filepath.Join("..", "..", "internal", "journal", "testdata", "v1.events.jsonl"))
	want := regexp.MustCompile(`(?s)^event log OK: campaign "fixture" .*, 2 ranges, 8 events\n` +
		`.*  dispatch +2\n.*  requeue +1\n.*  worker_dead +1\n.*  ranges touched: 2 of 2\n$`)
	if code != 0 || !want.MatchString(out) {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

// TestRunInfo: -runinfo ranks the golden sidecar's stages by share, and
// names the trace and span of a sidecar a fleet worker would write.
func TestRunInfo(t *testing.T) {
	golden := filepath.Join("..", "..", "internal", "obs", "testdata", "runinfo.golden.json")
	ri, err := obs.ReadRunInfo(golden)
	if err != nil {
		t.Fatal(err)
	}
	ri.Trace, ri.Span = "00112233aabbccdd", "00112233aabbccdd-001"
	traced := filepath.Join(t.TempDir(), "traced"+obs.RunInfoSuffix)
	if err := ri.Write(traced); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		golden: "stages by share of total stage time:\n  simulate ",
		traced: " trace 00112233aabbccdd span 00112233aabbccdd-001\n",
	} {
		if out, code := lbcheck(t, "-runinfo", path); code != 0 || !strings.Contains(out, want) {
			t.Errorf("%s: exit %d, want %q in:\n%s", path, code, want, out)
		}
	}
}

// TestSchedule: -system/-schedule accepts a valid schedule and reports a
// corrupted one (b moved onto a's slot, before its producer ends) as
// INVALID with exit code 1.
func TestSchedule(t *testing.T) {
	dir := t.TempDir()
	system := filepath.Join(dir, "sys.json")
	if err := os.WriteFile(system, []byte(`{"tasks": [{"name": "a", "period": 4, "wcet": 1, "mem": 1},
		{"name": "b", "period": 4, "wcet": 2, "mem": 1}], "deps": [{"src": "a", "dst": "b"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	const header = "task,instance,processor,start,end,mem\na,1,1,0,1,1\n"
	for rows, want := range map[string]string{
		"b,1,1,1,3,1\n": "OK: 2 instances on 2 processors",
		"b,1,1,0,2,1\n": "INVALID: ",
	} {
		schedule := filepath.Join(dir, "sched.csv")
		if err := os.WriteFile(schedule, []byte(header+rows), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := lbcheck(t, "-system", system, "-schedule", schedule, "-procs", "2")
		if !strings.HasPrefix(out, want) || (code == 0) != strings.HasPrefix(want, "OK") {
			t.Errorf("schedule with %q: exit %d, want %q, output:\n%s", rows, code, want, out)
		}
	}
}

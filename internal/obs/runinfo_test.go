package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureRunInfo is a fully-populated sidecar with deterministic values
// (host facts hand-set, not read from the machine) so its rendering can
// be pinned byte-for-byte against the golden fixture.
func fixtureRunInfo() *RunInfo {
	ri := &RunInfo{
		Schema:    RunInfoSchema,
		Tool:      "lbfarm",
		Name:      "golden",
		SpecHash:  "deadbeef",
		Shard:     "2/3",
		Trials:    240,
		Workers:   8,
		ElapsedNS: 123_456_789,
		Host: Host{
			Hostname:   "host.example",
			OS:         "linux",
			Arch:       "amd64",
			CPUs:       16,
			GoMaxProcs: 16,
			GoVersion:  "go1.24.0",
		},
		Mem: MemStats{
			HeapAllocBytes:  1 << 20,
			TotalAllocBytes: 1 << 24,
			SysBytes:        1 << 25,
			Mallocs:         42_000,
			NumGC:           7,
			GCPauseTotalNS:  55_000,
			GCCPUFraction:   0.001,
		},
	}
	s := NewSet(2)
	s.Recorder(0).Observe(StageSimulate, 1000)
	s.Recorder(1).Observe(StageSimulate, 3000)
	s.Recorder(0).Add(CounterTrialsAccepted, 2)
	snap := s.Snapshot()
	snap.ElapsedNS = 123_456_789 // wall-clock fields pinned for the fixture
	snap.Timeline = Timeline{WidthNS: 1 << 24, Counts: []int64{2}}
	ri.Obs = snap
	return ri
}

// TestRunInfoGolden pins the sidecar rendering byte-for-byte against
// testdata/runinfo.golden.json: the schema documented in
// docs/observability.md is what consumers parse, so a layout change
// must show up as a golden diff (and a RunInfoSchema bump when a field
// is renamed or changes meaning). Regenerate with
//
//	OBS_UPDATE_GOLDEN=1 go test ./internal/obs -run TestRunInfoGolden
func TestRunInfoGolden(t *testing.T) {
	golden := filepath.Join("testdata", "runinfo.golden.json")
	got, err := fixtureRunInfo().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if updateGolden() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("runinfo rendering diverged from the golden fixture; if the schema change is intentional, rerun with OBS_UPDATE_GOLDEN=1 (and bump RunInfoSchema on renames)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func updateGolden() bool {
	return os.Getenv("OBS_UPDATE_GOLDEN") != ""
}

// TestRunInfoRoundTrip: the golden fixture decodes into RunInfo and
// re-encodes to the identical bytes — no field is dropped, renamed, or
// retyped on the way through, so sidecars survive read-modify-write
// tooling unchanged.
func TestRunInfoRoundTrip(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "runinfo.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ri RunInfo
	if err := json.Unmarshal(want, &ri); err != nil {
		t.Fatal(err)
	}
	got, err := ri.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("golden sidecar does not round-trip through RunInfo\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunInfoWrite: Write produces a parseable file whose stage keys
// cover the full stage set.
func TestRunInfoWrite(t *testing.T) {
	ri := NewRunInfo("lbfarm")
	ri.Name = "writecheck"
	set := NewSet(1)
	ri.Obs = set.Snapshot()
	ri.Finish(set.Elapsed())
	path := filepath.Join(t.TempDir(), "writecheck"+RunInfoSuffix)
	if err := ri.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Error("sidecar must be newline-terminated")
	}
	var back RunInfo
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != RunInfoSchema || back.Tool != "lbfarm" || back.Host.GoVersion == "" {
		t.Fatalf("written sidecar lost identity fields: %+v", back)
	}
	for st := Stage(0); st < NumStages; st++ {
		if _, ok := back.Obs.Stages[st.String()]; !ok {
			t.Errorf("stage key %q missing from written sidecar", st)
		}
	}
}

package main

// Process-level tests: the test binary re-execs itself as lbmerge
// (TestMain below), so the flags, the exit status and the files written
// are the CLI's own.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/obs"
)

// TestMain lets the test binary impersonate the lbmerge CLI: a child
// process started with LBMERGE_BE_MAIN=1 runs main() on its argv.
func TestMain(m *testing.M) {
	if os.Getenv("LBMERGE_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lbmerge runs a re-exec'd lbmerge to completion.
func lbmerge(args ...string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LBMERGE_BE_MAIN=1")
	return cmd.CombinedOutput()
}

// smokeSpec is a 24-trial sweep with the given analyzer and phase sets.
func smokeSpec(analyzers, phases []string) *campaign.Spec {
	return &campaign.Spec{
		Name: "smoke", Seeds: 6, Tasks: []int{12}, Utilization: []float64{1.5}, Procs: []int{2, 3},
		Policies: []string{"lexicographic", "memory-only"}, Analyzers: analyzers, AnalyzerPhases: phases,
	}
}

// shards journals spec as three shards, each at its own worker count,
// and returns the journal paths. With sidecars, each shard also runs
// with telemetry and leaves its runinfo sidecar next to its journal, as
// `lbfarm -shard i/n -journal …` does.
func shards(t *testing.T, spec *campaign.Spec, sidecars bool) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 3; i++ {
		hdr, err := journal.NewHeader(spec, i, 3)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i+1))
		w, err := journal.Create(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		var set *obs.Set
		if sidecars {
			set = obs.NewSet(i + 1)
		}
		if _, err := (&campaign.Engine{Workers: i + 1, Lo: hdr.Lo, Hi: hdr.Hi, Obs: set, Sink: w.Append}).Run(spec); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if sidecars {
			ri := obs.NewRunInfo("lbfarm")
			ri.Name, ri.SpecHash, ri.Shard = spec.Name, hdr.SpecHash, fmt.Sprintf("%d/3", i+1)
			ri.Trials, ri.Workers, ri.Obs = hdr.Hi-hdr.Lo, i+1, set.Snapshot()
			ri.Finish(set.Elapsed())
			if err := ri.Write(filepath.Join(dir, fmt.Sprintf("shard%d", i+1)+obs.RunInfoSuffix)); err != nil {
				t.Fatal(err)
			}
		}
		paths = append(paths, path)
	}
	return paths
}

// TestMergeCLI: lbmerge folds three shard journals into the artifacts of
// a single-host run — without analyzers, with analyzers asserted by
// -analyzers, and with before/after phases asserted by -analyzer-phases —
// and exits non-zero when one shard comes from another analyzer or
// phase set, or when the shards' sets are not the asserted ones.
func TestMergeCLI(t *testing.T) {
	ana := []string{"schedulability", "moves"}
	phased := []string{"contention", "reuse", "schedulability"}
	plainShards := shards(t, smokeSpec(nil, nil), false)
	anaShards := shards(t, smokeSpec(ana, nil), false)
	afterShards := shards(t, smokeSpec(phased, nil), false)
	phasedShards := shards(t, smokeSpec(phased, []string{"before", "after"}), false)

	for name, c := range map[string]struct {
		spec   *campaign.Spec
		shards []string
		flags  []string
	}{
		"plain":     {smokeSpec(nil, nil), plainShards, nil},
		"analyzers": {smokeSpec(ana, nil), anaShards, []string{"-analyzers", "schedulability,moves"}},
		"phases": {smokeSpec(phased, []string{"before", "after"}), phasedShards,
			[]string{"-analyzers", "contention,reuse,schedulability", "-analyzer-phases", "before,after"}},
	} {
		out := filepath.Join(t.TempDir(), "out")
		if msg, err := lbmerge(append(append([]string{"-out", out}, c.flags...), c.shards...)...); err != nil {
			t.Fatalf("%s: lbmerge: %v\n%s", name, err, msg)
		}
		ref, err := (&campaign.Engine{Workers: 4}).Run(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := ref.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var wantCSV bytes.Buffer
		if err := ref.WriteCSV(&wantCSV); err != nil {
			t.Fatal(err)
		}
		for f, want := range map[string][]byte{"smoke.json": wantJSON, "smoke.csv": wantCSV.Bytes()} {
			if got, err := os.ReadFile(filepath.Join(out, f)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: merged %s differs from the single-host run (%v)", name, f, err)
			}
		}
	}

	for name, c := range map[string]struct {
		args []string
		want string
	}{
		"mixed analyzer sets": {[]string{plainShards[0], anaShards[1], anaShards[2]}, "different analyzer sets"},
		"mixed phase sets":    {[]string{afterShards[0], phasedShards[1], phasedShards[2]}, "different phase sets"},
		"another -analyzers":  {append([]string{"-analyzers", "none"}, anaShards...), "-analyzers requires []"},
		"another -analyzer-phases": {append([]string{"-analyzer-phases", "after"}, phasedShards...),
			"-analyzer-phases requires [after]"},
	} {
		if msg, err := lbmerge(append([]string{"-table-only"}, c.args...)...); err == nil || !bytes.Contains(msg, []byte(c.want)) {
			t.Errorf("%s: %v, want a refusal naming %q:\n%s", name, err, c.want, msg)
		}
	}
}

// TestMergeFleetInfo: shard journals with runinfo sidecars next to them
// merge into <out>/<name>.fleetinfo.json, whose trial counters sum to
// the campaign's trial count and which lists one worker per shard;
// shards without sidecars leave no fleetinfo behind.
func TestMergeFleetInfo(t *testing.T) {
	spec := smokeSpec(nil, nil)
	trials, err := spec.Trials()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out")
	if msg, err := lbmerge(append([]string{"-out", out}, shards(t, spec, true)...)...); err != nil {
		t.Fatalf("lbmerge: %v\n%s", err, msg)
	}
	fi, err := obs.ReadFleetInfo(filepath.Join(out, "smoke"+obs.FleetInfoSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Tool != "lbmerge" || fi.Shards != 3 || len(fi.Workers) != 3 {
		t.Errorf("fleetinfo tool %q, %d shards, %d workers; want lbmerge, 3, 3", fi.Tool, fi.Shards, len(fi.Workers))
	}
	if fi.Obs == nil {
		t.Fatal("fleetinfo has no merged snapshot")
	}
	if got := fi.Obs.Counters["trials_accepted"] + fi.Obs.Counters["trials_rejected"]; int(got) != len(trials) {
		t.Errorf("fleetinfo trial counters sum to %d, the campaign has %d trials", got, len(trials))
	}

	out = filepath.Join(t.TempDir(), "out")
	if msg, err := lbmerge(append([]string{"-out", out}, shards(t, spec, false)...)...); err != nil {
		t.Fatalf("lbmerge without sidecars: %v\n%s", err, msg)
	}
	if _, err := os.Stat(filepath.Join(out, "smoke"+obs.FleetInfoSuffix)); !os.IsNotExist(err) {
		t.Errorf("lbmerge without sidecars wrote a fleetinfo (stat: %v)", err)
	}
	if _, err := os.Stat(filepath.Join(out, "smoke"+obs.RunInfoSuffix)); err != nil {
		t.Errorf("lbmerge without sidecars wrote no runinfo: %v", err)
	}
}

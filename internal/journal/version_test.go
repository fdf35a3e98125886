package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// analyzerSpec is the test spec with the full analyzer set attached.
func analyzerSpec() *campaign.Spec {
	s := testSpec()
	s.Analyzers = []string{"schedulability", "moves", "contention", "reuse"}
	return s
}

// TestOldVersionRefused: journals of versions 1 and 3 — the schema
// before the analyzer binding, and the rows from before the
// steady-state fold — must be refused loudly by Read, Resume, and Merge,
// naming what they predate, never silently merged. (Version 2 has its
// own test, TestV2Refused.)
func TestOldVersionRefused(t *testing.T) {
	for version, hint := range map[int]string{1: "per-trial analyzers", 3: "predates the steady-state fold"} {
		path := filepath.Join(t.TempDir(), "old.jsonl")
		hdr, err := NewHeader(testSpec(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Hand-frame an old header: the version check must fire before any
		// hash validation gets a chance to complain about something else.
		old := hdr
		old.Version = version
		payload, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, appendFrame(nil, payload), 0o644); err != nil {
			t.Fatal(err)
		}

		want := fmt.Sprintf("unsupported version %d (want %d)", version, Version)
		for label, got := range map[string]error{
			"Read":   second(Read(path)),
			"Resume": third(Resume(path, hdr, nil)),
			"Merge":  second(Merge([]string{path})),
		} {
			if got == nil || !strings.Contains(got.Error(), want) || !strings.Contains(got.Error(), hint) {
				t.Fatalf("%s of v%d journal: %v", label, version, got)
			}
		}
	}
}

// TestResumeRefusesDifferentAnalyzers: a journal written under one
// analyzer set refuses to resume under another — in both directions —
// with a message naming the two sets.
func TestResumeRefusesDifferentAnalyzers(t *testing.T) {
	dir := t.TempDir()

	withPath := filepath.Join(dir, "with.jsonl")
	journalRun(t, analyzerSpec(), withPath, 2, 0, 1)
	plainHdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(withPath, plainHdr, nil); err == nil || !strings.Contains(err.Error(), "written with analyzers") {
		t.Fatalf("resume analyzer journal without analyzers: %v", err)
	}

	plainPath := filepath.Join(dir, "plain.jsonl")
	journalRun(t, testSpec(), plainPath, 2, 0, 1)
	anaHdr, err := NewHeader(analyzerSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(plainPath, anaHdr, nil); err == nil || !strings.Contains(err.Error(), "written with analyzers none") {
		t.Fatalf("resume plain journal with analyzers: %v", err)
	}

	// A subset is still a mismatch.
	subset := testSpec()
	subset.Analyzers = []string{"schedulability"}
	subHdr, err := NewHeader(subset, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(withPath, subHdr, nil); err == nil || !strings.Contains(err.Error(), "written with analyzers") {
		t.Fatalf("resume with analyzer subset: %v", err)
	}
}

// TestMergeRefusesMixedAnalyzers: shards produced under different
// analyzer sets must not merge, with the analyzer mismatch — not the
// generic spec-hash disagreement — in the error.
func TestMergeRefusesMixedAnalyzers(t *testing.T) {
	dir := t.TempDir()
	p0 := filepath.Join(dir, "ana.jsonl")
	p1 := filepath.Join(dir, "plain.jsonl")
	journalRun(t, analyzerSpec(), p0, 2, 0, 2)
	journalRun(t, testSpec(), p1, 2, 1, 2)
	if _, err := Merge([]string{p0, p1}); err == nil || !strings.Contains(err.Error(), "different analyzer sets") {
		t.Fatalf("mixed analyzer merge: %v", err)
	}
}

// checkCrashResume journals spec whole, cuts the journal at ¼, ½ and
// just short of the end (the state a kill leaves), and requires each
// resumed run to reproduce the uninterrupted artifacts: the recovered
// rows' extras pass the structural replay validation.
func checkCrashResume(t *testing.T, spec func() *campaign.Spec) {
	t.Helper()
	res, err := (&campaign.Engine{Workers: 4}).Run(spec())
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV := artifacts(t, res)

	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	journalRun(t, spec(), full, 2, 0, 1)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{4, 2, 1} {
		cut := len(data)/frac - 3
		path := filepath.Join(dir, fmt.Sprintf("killed%d.jsonl", frac))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		hdr, err := NewHeader(spec(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, done, err := Resume(path, hdr, nil)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		resumed, err := w.Run(&campaign.Engine{Workers: 2}, spec())
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if gotJSON, gotCSV := artifacts(t, resumed); !bytes.Equal(gotJSON, refJSON) || !bytes.Equal(gotCSV, refCSV) {
			t.Fatalf("cut=%d (%d rows recovered): resumed artifacts differ", cut, len(done))
		}
	}
}

// checkMerge journals spec as three shards and requires their merge, in
// a shuffled order, to reproduce the single-host artifacts, whose CSV
// must carry every one of cols.
func checkMerge(t *testing.T, spec func() *campaign.Spec, cols ...string) {
	t.Helper()
	res, err := (&campaign.Engine{Workers: 4}).Run(spec())
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV := artifacts(t, res)
	for _, col := range cols {
		if !bytes.Contains(refCSV, []byte(col)) {
			t.Fatalf("reference CSV lacks column %q", col)
		}
	}
	dir := t.TempDir()
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i+1))
		journalRun(t, spec(), paths[i], 2, i, 3)
	}
	merged, err := Merge([]string{paths[2], paths[0], paths[1]})
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON, gotCSV := artifacts(t, merged); !bytes.Equal(gotJSON, refJSON) || !bytes.Equal(gotCSV, refCSV) {
		t.Fatal("merged artifacts differ from the single-host run")
	}
}

// TestCrashResumeWithAnalyzers: a killed analyzer sweep resumes into
// artifacts byte-identical to the uninterrupted run, extras included.
func TestCrashResumeWithAnalyzers(t *testing.T) {
	checkCrashResume(t, analyzerSpec)
}

// TestMergeAnalyzersByteIdentical: the acceptance criterion's multi-host
// half with analyzers on — three shard journals merge into artifacts
// byte-identical to the uninterrupted single-host run, extras included.
func TestMergeAnalyzersByteIdentical(t *testing.T) {
	checkMerge(t, analyzerSpec, "schedulability.util_margin")
}

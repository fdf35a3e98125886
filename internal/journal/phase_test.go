package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// phaseSpec is the analyzer test spec with the before phase enabled.
func phaseSpec() *campaign.Spec {
	s := analyzerSpec()
	s.AnalyzerPhases = []string{"before", "after"}
	return s
}

// TestV2Refused: a version-2 journal — the schema before the phase
// binding — must be refused by Read, Resume, and Merge with a message
// naming what version 2 lacks, never silently merged with after-only
// extras.
func TestV2Refused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.jsonl")
	hdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	old := hdr
	old.Version = 2
	payload, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, appendFrame(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprintf("unsupported version 2 (want %d)", Version)
	for label, got := range map[string]error{
		"Read":   second(Read(path)),
		"Resume": third(Resume(path, hdr, nil)),
		"Merge":  second(Merge([]string{path})),
	} {
		if got == nil || !strings.Contains(got.Error(), want) {
			t.Fatalf("%s of v2 journal: %v", label, got)
		}
		if !strings.Contains(got.Error(), "phase axis") {
			t.Fatalf("%s error %q does not name the missing schema feature", label, got)
		}
	}
}

func second[A, B any](_ A, b B) B        { return b }
func third[A, B, C any](_ A, _ B, c C) C { return c }

// TestResumeRefusesMixedPhases: a journal written under one phase set
// refuses to resume under another — in both directions — naming the
// two sets and the flag that fixes it.
func TestResumeRefusesMixedPhases(t *testing.T) {
	dir := t.TempDir()

	phasedPath := filepath.Join(dir, "phased.jsonl")
	journalRun(t, phaseSpec(), phasedPath, 2, 0, 1)
	afterHdr, err := NewHeader(analyzerSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = third(Resume(phasedPath, afterHdr, nil))
	if err == nil || !strings.Contains(err.Error(), "written with analyzer phases before,after") ||
		!strings.Contains(err.Error(), "-analyzer-phases") {
		t.Fatalf("resume phased journal with after-only run: %v", err)
	}

	afterPath := filepath.Join(dir, "after.jsonl")
	journalRun(t, analyzerSpec(), afterPath, 2, 0, 1)
	phasedHdr, err := NewHeader(phaseSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = third(Resume(afterPath, phasedHdr, nil))
	if err == nil || !strings.Contains(err.Error(), "written with analyzer phases after") {
		t.Fatalf("resume after-only journal with phased run: %v", err)
	}
}

// TestMergeRefusesMixedPhases: shards produced under different phase
// sets must not merge, with the phase mismatch — not the generic
// spec-hash disagreement — in the error.
func TestMergeRefusesMixedPhases(t *testing.T) {
	dir := t.TempDir()
	p0 := filepath.Join(dir, "phased.jsonl")
	p1 := filepath.Join(dir, "after.jsonl")
	journalRun(t, phaseSpec(), p0, 2, 0, 2)
	journalRun(t, analyzerSpec(), p1, 2, 1, 2)
	if err := second(Merge([]string{p0, p1})); err == nil || !strings.Contains(err.Error(), "different phase sets") {
		t.Fatalf("mixed phase merge: %v", err)
	}
}

// TestCrashResumeWithPhases: a killed before/after sweep resumes into
// artifacts byte-identical to the uninterrupted run, before./delta.
// extras included.
func TestCrashResumeWithPhases(t *testing.T) {
	checkCrashResume(t, phaseSpec)
}

// TestMergePhasesByteIdentical: three shard journals of a before/after
// sweep merge into artifacts byte-identical to the single-host run,
// before./delta. columns included.
func TestMergePhasesByteIdentical(t *testing.T) {
	checkMerge(t, phaseSpec, "before.contention.busy_mean", "delta.reuse.savings")
}

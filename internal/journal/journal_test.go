package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// testSpec mirrors the campaign package's smoke spec: 24 trials over a
// 2×2 grid with mixed schedulability.
func testSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:        "smoke",
		Seeds:       6,
		Tasks:       []int{12},
		Utilization: []float64{1.5},
		Procs:       []int{2, 3},
		Policies:    []string{"lexicographic", "memory-only"},
	}
}

// runJournaled executes the spec (or a shard of it) as the journaled
// run of a fresh journal at path and returns the run's rows.
func runJournaled(t testing.TB, path string, workers, shardIdx, shardCnt int) []campaign.TrialResult {
	t.Helper()
	return journalRun(t, testSpec(), path, workers, shardIdx, shardCnt).Trials
}

// journalRun creates a journal at path for shard shardIdx of shardCnt
// of spec and runs it through Writer.Run.
func journalRun(t testing.TB, spec *campaign.Spec, path string, workers, shardIdx, shardCnt int) *campaign.Result {
	t.Helper()
	hdr, err := NewHeader(spec, shardIdx, shardCnt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(&campaign.Engine{Workers: workers}, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	rows := runJournaled(t, path, 4, 0, 1)

	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !j.HeaderOK || j.Torn {
		t.Fatalf("journal state: headerOK=%v torn=%v", j.HeaderOK, j.Torn)
	}
	if !j.Complete() {
		t.Fatalf("journal incomplete: %d of %d rows", len(j.Rows), j.Header.Hi-j.Header.Lo)
	}
	if len(j.Rows) != len(rows) {
		t.Fatalf("rows: %d, want %d", len(j.Rows), len(rows))
	}
	// Journal order is completion order; compare as sets keyed by index.
	byIdx := map[int]campaign.TrialResult{}
	for _, r := range j.Rows {
		byIdx[r.Index] = r
	}
	for _, want := range rows {
		if got := byIdx[want.Index]; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: journaled %+v, ran %+v", want.Index, got, want)
		}
	}
	// The header binds the journal to the spec.
	hash, err := testSpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if j.Header.SpecHash != hash {
		t.Fatalf("spec hash %s, want %s", j.Header.SpecHash, hash)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	runJournaled(t, path, 2, 0, 1)
	hdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path, hdr); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("create over existing journal: %v", err)
	}
}

func TestAppendRejectsOutOfRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	hdr, err := NewHeader(testSpec(), 0, 3) // shard 1/3 of 24 trials: [0,8)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(campaign.TrialResult{Index: 8}); err == nil || !strings.Contains(err.Error(), "outside shard range") {
		t.Fatalf("out-of-range append: %v", err)
	}
}

func TestReadRejectsDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	hdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	r := campaign.TrialResult{Index: 3, Cell: "N=12/U=1.5/M=2/lexicographic", Seed: 3}
	if err := w.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "journaled twice") {
		t.Fatalf("duplicate rows: %v", err)
	}
}

func TestResumeRejectsForeignSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	runJournaled(t, path, 2, 0, 1)

	other := testSpec()
	other.Seeds = 7 // different grid → different hash
	hdr, err := NewHeader(other, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, hdr, nil); err == nil || !strings.Contains(err.Error(), "spec hash") {
		t.Fatalf("foreign spec resume: %v", err)
	}
}

func TestResumeRejectsForeignShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	runJournaled(t, path, 2, 0, 3)
	hdr, err := NewHeader(testSpec(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, hdr, nil); err == nil || !strings.Contains(err.Error(), "does not match requested shard") {
		t.Fatalf("foreign shard resume: %v", err)
	}
}

func TestTamperedSpecDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	runJournaled(t, path, 2, 0, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the header frame with an edited spec but the original
	// hash claim — and a valid CRC, so only the hash check can catch it.
	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := j.Header
	hdr.Spec.Seeds = 7
	payload, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	tampered := append(appendFrame(nil, payload), data[nl+1:]...)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Fatalf("tampered spec: %v", err)
	}
}

// TestTornFinalRecordRecovered: a bad final record with nothing after
// it is a torn tail even when its newline survived (out-of-order
// sector persistence), and resume repairs it; the same damage mid-file
// stays a hard error.
func TestTornFinalRecordRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	rows := runJournaled(t, path, 2, 0, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	flipped := append([]byte(nil), data...)
	flipped[lastLine+20] ^= 0x01
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Torn || len(j.Rows) != len(rows)-1 {
		t.Fatalf("bad final record: torn=%v rows=%d, want torn with %d rows", j.Torn, len(j.Rows), len(rows)-1)
	}
	hdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, done, err := Resume(path, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(rows)-1 {
		t.Fatalf("resume recovered %d rows, want %d", len(done), len(rows)-1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyShardRejected: more shards than trials is a clear error, not
// a cryptic invalid-range failure deep in the stack.
func TestEmptyShardRejected(t *testing.T) {
	spec := testSpec()
	spec.Seeds = 1
	spec.Procs = []int{2}
	spec.Policies = []string{"lexicographic"} // 1 trial
	if _, err := NewHeader(spec, 1, 3); err == nil || !strings.Contains(err.Error(), "is empty") {
		t.Fatalf("empty shard: %v", err)
	}
}

// TestResumeRefusesLiveJournal: resuming a journal whose writer is
// still alive must fail on the file lock, not interleave rows.
func TestResumeRefusesLiveJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	hdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, hdr, nil); err == nil || !strings.Contains(err.Error(), "another") {
		t.Fatalf("resume of a live journal: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Once the writer is gone the lock is released and resume proceeds.
	w2, done, err := Resume(path, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("recovered %d rows from a header-only journal", len(done))
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestShardRangeTiles(t *testing.T) {
	for _, total := range []int{1, 7, 24, 1000} {
		for _, n := range []int{1, 2, 3, 7, total} {
			next := 0
			for i := 0; i < n; i++ {
				lo, hi := ShardRange(total, i, n)
				if lo != next {
					t.Fatalf("total=%d n=%d shard %d starts at %d, want %d", total, n, i, lo, next)
				}
				next = hi
			}
			if next != total {
				t.Fatalf("total=%d n=%d ends at %d", total, n, next)
			}
		}
	}
}

package journal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
)

// refArtifacts is the uninterrupted single-host reference.
func refArtifacts(t *testing.T) ([]byte, []byte) {
	t.Helper()
	res, err := (&campaign.Engine{Workers: 4}).Run(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	return artifacts(t, res)
}

func artifacts(t *testing.T, res *campaign.Result) ([]byte, []byte) {
	t.Helper()
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return data, csv.Bytes()
}

// TestCrashResumeByteIdentical is the crash-recovery property test: a
// journaled sweep is "killed" by truncating its journal at a random
// byte offset — exactly the on-disk state a SIGKILL or power loss
// leaves behind, including a torn record and even a beheaded header —
// then resumed. The resumed run must (a) skip the recovered trials and
// (b) produce JSON and CSV artifacts byte-identical to an
// uninterrupted run, at 1, 2, and 8 workers.
func TestCrashResumeByteIdentical(t *testing.T) {
	refJSON, refCSV := refArtifacts(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	runJournaled(t, full, 4, 0, 1)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(20260726))
	workerGrid := []int{1, 2, 8}
	for round := 0; round < 9; round++ {
		// Cover the degenerate cuts too: empty file, missing final byte.
		cut := rng.Intn(len(data))
		if round == 0 {
			cut = 0
		}
		if round == 1 {
			cut = len(data) - 1
		}
		workers := workerGrid[round%len(workerGrid)]

		path := filepath.Join(dir, "killed.jsonl")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		hdr, err := NewHeader(testSpec(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, done, err := Resume(path, hdr, nil)
		if err != nil {
			t.Fatalf("cut=%d: resume: %v", cut, err)
		}
		res, err := w.Run(&campaign.Engine{Workers: workers}, testSpec())
		if err != nil {
			t.Fatalf("cut=%d workers=%d: %v", cut, workers, err)
		}
		gotJSON, gotCSV := artifacts(t, res)
		if !bytes.Equal(gotJSON, refJSON) {
			t.Fatalf("cut=%d workers=%d (%d trials recovered): resumed JSON differs from uninterrupted run",
				cut, workers, len(done))
		}
		if !bytes.Equal(gotCSV, refCSV) {
			t.Fatalf("cut=%d workers=%d: resumed CSV differs from uninterrupted run", cut, workers)
		}

		// After the resume, the journal itself must be whole again: a
		// second resume finds nothing left to run, and a single-shard
		// merge of it reproduces the artifacts a third way.
		j, err := Read(path)
		if err != nil {
			t.Fatalf("cut=%d: reread: %v", cut, err)
		}
		if !j.Complete() || j.Torn {
			t.Fatalf("cut=%d: resumed journal incomplete (%d rows, torn=%v)", cut, len(j.Rows), j.Torn)
		}
		merged, err := Merge([]string{path})
		if err != nil {
			t.Fatalf("cut=%d: merge: %v", cut, err)
		}
		mJSON, mCSV := artifacts(t, merged)
		if !bytes.Equal(mJSON, refJSON) || !bytes.Equal(mCSV, refCSV) {
			t.Fatalf("cut=%d: merged journal artifacts differ", cut)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeTruncatesTornTail pins the repair: after Resume, the torn
// record is gone from disk and the file ends on a clean frame.
func TestResumeTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	runJournaled(t, full, 2, 0, 1)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	hdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, done, err := Resume(path, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) == 0 || repaired[len(repaired)-1] != '\n' {
		t.Fatalf("repaired journal does not end on a frame boundary (%d bytes)", len(repaired))
	}
	j, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Torn || len(j.Rows) != len(done) {
		t.Fatalf("repaired journal: torn=%v rows=%d done=%d", j.Torn, len(j.Rows), len(done))
	}
}

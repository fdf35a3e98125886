package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TestWriterObsCounters: the journal writer's telemetry accounts for
// every append — record count, framed bytes on disk, and the fsync
// cadence (one sync per SyncEvery appends, plus the one Close issues).
func TestWriterObsCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	spec := testSpec()
	spec.Seeds = 25 // 100 trials: three whole cadence periods and a remainder
	hdr, err := NewHeader(spec, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Create(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	set := obs.NewSet(1)
	w.Obs = set.Aux()

	// Synthetic rows: the cadence counts records, not trial work.
	n := int64(hdr.Hi - hdr.Lo)
	for i := hdr.Lo; i < hdr.Hi; i++ {
		if err := w.Append(campaign.TrialResult{Index: i, Outcome: campaign.OutcomeOK}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snap := set.Snapshot()
	if got := snap.Counters["journal_records"]; got != n {
		t.Fatalf("journal_records = %d, want %d", got, n)
	}
	// Byte accounting covers the record frames exactly: file size minus
	// the header line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := int64(bytes.IndexByte(data, '\n') + 1)
	if got := snap.Counters["journal_bytes"]; got != int64(len(data))-hdrLen {
		t.Fatalf("journal_bytes = %d, want file size %d minus header %d", got, len(data), hdrLen)
	}
	// 100 records at SyncEvery=32 is 3 cadence syncs; Close adds one more.
	const cadence = 3
	if got := snap.Counters["journal_fsyncs"]; got != cadence+1 {
		t.Fatalf("journal_fsyncs = %d, want %d cadence syncs + 1 on close", got, cadence)
	}
	// Appends were observed; fsync waits only on the appends that synced.
	if c := snap.Stages["journal_append"].Count; c != n {
		t.Fatalf("journal_append count = %d, want %d", c, n)
	}
	if c := snap.Stages["journal_fsync"].Count; c != cadence {
		t.Fatalf("journal_fsync count = %d, want the %d cadence syncs", c, cadence)
	}
}

// TestWriterObsByteIdentity: attaching telemetry must not change a
// single journal byte — the journal is part of the resume/merge
// identity contract.
func TestWriterObsByteIdentity(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rec *obs.Recorder) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		hdr, err := NewHeader(testSpec(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Create(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		w.Obs = rec
		if _, err := w.Run(&campaign.Engine{Workers: 1}, testSpec()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain := write("plain.jsonl", nil)
	observed := write("observed.jsonl", obs.NewSet(1).Aux())
	if !bytes.Equal(plain, observed) {
		t.Fatal("journal bytes differ with telemetry attached")
	}
}

// TestResumeReportsTornRepair: the truncated-tail repair that Resume
// performs counts once on the recorder it is handed (torn_repairs in
// the runinfo sidecar), and a clean resume counts nothing.
func TestResumeReportsTornRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	runJournaled(t, path, 2, 0, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	data[lastLine+20] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	hdr, err := NewHeader(testSpec(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{1, 0} { // torn, then clean
		set := obs.NewSet(1)
		w, _, err := Resume(path, hdr, set.Aux())
		if err != nil {
			t.Fatal(err)
		}
		if w.Obs != set.Aux() {
			t.Fatal("Resume did not attach the recorder to the writer")
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := set.Snapshot().Counters[obs.CounterTornRepairs.String()]; got != want {
			t.Fatalf("torn_repairs = %d, want %d", got, want)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
)

// Each oracle must pass on its true reference and fail once the
// reference is corrupted; otherwise a run's "correct" would be
// vacuous.

// tinySpec is a small analyzer-carrying campaign for the tests.
func tinySpec() *campaign.Spec {
	return &campaign.Spec{
		Name:           "tiny",
		Seeds:          2,
		Tasks:          []int{12},
		Utilization:    []float64{1.5},
		Procs:          []int{3},
		Policies:       []string{"lexicographic", "ratio"},
		Analyzers:      []string{"contention", "moves", "reuse", "schedulability"},
		AnalyzerPhases: []string{"before", "after"},
	}
}

func runTiny(t *testing.T) (*campaign.Spec, *campaign.Result, artifacts) {
	t.Helper()
	spec := tinySpec()
	res, err := (&campaign.Engine{Workers: 2}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := render(nil, res, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return spec, res, ref
}

// flip returns a copy of b with one byte changed (a digit stays a
// digit, so JSON stays parseable).
func flip(b []byte, at int) []byte {
	out := append([]byte(nil), b...)
	out[at%len(out)] ^= 0x01
	return out
}

// writePaperFiles lays out a checkout whose committed paper-phase pair
// is (json, csv).
func writePaperFiles(t *testing.T, json, csv []byte) string {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "artifacts"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{paperJSON: json, paperCSV: csv} {
		if err := os.WriteFile(filepath.Join(root, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestPaperOracleBitesOnCorruptedCommittedBytes(t *testing.T) {
	_, _, ref := runTiny(t)
	st, err := setupPaper(writePaperFiles(t, ref.json, ref.csv))
	if err != nil {
		t.Fatal(err)
	}
	res, err := paperSweep(nil, st)
	if err != nil {
		t.Fatalf("sweep against its true reference: %v", err)
	}
	if err := paperHit(nil, st, res.Trials); err != nil {
		t.Fatalf("hit against its true reference: %v", err)
	}

	for _, corrupt := range []struct {
		name      string
		json, csv []byte
	}{
		{"json", flip(ref.json, bytes.LastIndexAny(ref.json, "123456789")), ref.csv},
		{"csv", ref.json, flip(ref.csv, len(ref.csv)-3)},
	} {
		st, err := setupPaper(writePaperFiles(t, corrupt.json, corrupt.csv))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := paperSweep(nil, st); err == nil {
			t.Errorf("sweep passed against a corrupted committed %s", corrupt.name)
		}
		if err := paperHit(nil, st, res.Trials); err == nil {
			t.Errorf("hit passed against a corrupted committed %s", corrupt.name)
		}
	}
}

func TestCommittedPaperSpecLoads(t *testing.T) {
	st, err := setupPaper("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.trials) != 240 || st.spec.Name != "paper-phase" {
		t.Fatalf("committed spec enumerates %d trials named %q, want 240 paper-phase", len(st.trials), st.spec.Name)
	}
}

func TestJournalOracleBitesOnCorruptedLiveBytes(t *testing.T) {
	spec, res, ref := runTiny(t)
	dir := t.TempDir()
	if err := journalRows(nil, filepath.Join(dir, "a.jsonl"), spec, res.Trials, ref); err != nil {
		t.Fatalf("journal round trip against the live bytes: %v", err)
	}
	bad := artifacts{flip(ref.json, 100), ref.csv}
	if err := journalRows(nil, filepath.Join(dir, "b.jsonl"), spec, res.Trials, bad); err == nil {
		t.Fatal("merged journal matched corrupted live JSON")
	}
	if _, err := journalCampaign(nil, filepath.Join(dir, "c.jsonl"), journalSpec(7, 0)); err != nil {
		t.Fatalf("journal-fold campaign: %v", err)
	}
}

func TestServiceOracleBitesOnCorruptedReference(t *testing.T) {
	dir := t.TempDir()
	hits, err := hitSpecs(dir, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := openPrimed(filepath.Join(dir, "daemon"), nil, hits)
	if err != nil {
		t.Fatalf("priming against the direct engine bytes: %v", err)
	}
	defer s.close()
	h := hits[0]
	if _, err := s.hit(nil, h.body, h.hash, h.ref); err != nil {
		t.Fatalf("hit against the direct engine bytes: %v", err)
	}
	if _, err := s.hit(nil, h.body, h.hash, artifacts{flip(h.ref.json, 7), h.ref.csv}); err == nil {
		t.Fatal("hit matched a corrupted reference")
	}

	fresh, err := prepare(nil, dir, serviceSpec(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.newCampaign(nil, fresh.body, fresh.hash, artifacts{fresh.ref.json, flip(fresh.ref.csv, 11)}, false); err == nil {
		t.Fatal("new campaign matched a corrupted CSV reference")
	}

	// A corrupted cache entry is caught too: the served bytes no
	// longer equal the direct run's.
	path := filepath.Join(s.dir, "store", "artifacts", h.hash+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flip(data, 42), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.hit(nil, h.body, h.hash, h.ref); err == nil {
		t.Fatal("hit served a corrupted cache entry without failing")
	}
}

func TestTrialOracleBitesOnCorruptedRow(t *testing.T) {
	spec := tinySpec()
	trials, err := spec.Trials()
	if err != nil {
		t.Fatal(err)
	}
	kit, err := newTrialKit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := checkHeldOut(trials, kit); err != nil || bad != 0 {
		t.Fatalf("held-out check on true rows: %d failed, err %v", bad, err)
	}
	for _, tr := range trials {
		want, _, err := trialLayers(nil, tr, kit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := campaign.RunTrial(tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRow(got, want); err != nil {
			t.Fatalf("true row: %v", err)
		}
		if got.Outcome != campaign.OutcomeOK {
			continue
		}
		got.Moves++
		if checkRow(got, want) == nil {
			t.Fatal("row with a corrupted move count passed")
		}
		got.Moves--
		got.Gain, got.MakespanAfter = -1, got.MakespanBefore+1
		want.Gain, want.MakespanAfter = got.Gain, got.MakespanAfter
		if checkRow(got, want) == nil {
			t.Fatal("row breaking the balancing invariants passed")
		}
		return
	}
	t.Fatal("tiny spec accepted no trial")
}

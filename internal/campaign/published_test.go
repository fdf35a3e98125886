package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// publishedDir holds the committed artifact sets (artifacts/README.md).
const publishedDir = "../../artifacts"

// publishedSpec decodes the spec embedded in a committed artifact.
func publishedSpec(t *testing.T, path string) *Spec {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spec *Spec `json:"spec"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Spec == nil {
		t.Fatalf("%s: no embedded spec (%v)", path, err)
	}
	return doc.Spec
}

// TestPublishedArtifactsReproduce regenerates every committed
// artifacts/<name>.json from the spec it embeds and requires the JSON
// and the <name>.csv beside it to match byte for byte. A change that
// moves any published number fails here until the set is re-published.
func TestPublishedArtifactsReproduce(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(publishedDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range paths {
		if strings.HasSuffix(path, ".runinfo.json") {
			continue // timings: a specimen, not a baseline
		}
		res, err := (&Engine{Workers: 2}).Run(publishedSpec(t, path))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		gotJSON, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var gotCSV bytes.Buffer
		if err := res.WriteCSV(&gotCSV); err != nil {
			t.Fatal(err)
		}
		for file, got := range map[string][]byte{path: gotJSON, strings.TrimSuffix(path, ".json") + ".csv": gotCSV.Bytes()} {
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from a regeneration from its embedded spec: re-publish it (artifacts/README.md)", file)
			}
		}
		n++
	}
	if n < 2 {
		t.Fatalf("found %d published artifact sets, want paper-phase and tiny", n)
	}
}

// TestPaperPhaseBalancedSchedulesValid replays every paper-phase trial
// the substrate accepts through the balancer and validates the balanced
// schedule: collision-free in steady state at every image k·H,
// precedence, periodicity, and Gtotal ≥ 0.
func TestPaperPhaseBalancedSchedulesValid(t *testing.T) {
	trials, err := publishedSpec(t, filepath.Join(publishedDir, "paper-phase.json")).Trials()
	if err != nil {
		t.Fatal(err)
	}
	prefixes := map[string]*trialPrefix{}
	balanced := 0
	for _, tr := range trials {
		key := prefixKey(tr)
		pre, ok := prefixes[key]
		if !ok {
			pre = runPrefix([]Trial{tr}, nil)
			prefixes[key] = pre
		}
		if pre.is == nil {
			continue // rejected by the substrate: nothing to balance
		}
		res, err := (&core.Balancer{Policy: tr.Policy, IgnoreTiming: tr.ignoreTiming}).Run(pre.is)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", tr.Index, tr.Cell, err)
		}
		if errs := res.Schedule.Validate(); len(errs) > 0 {
			t.Fatalf("trial %d (%s): balanced schedule invalid (%d errors): %v", tr.Index, tr.Cell, len(errs), errs[0])
		}
		if g := res.GainTotal(); g < 0 {
			t.Fatalf("trial %d (%s): Gtotal %d < 0", tr.Index, tr.Cell, g)
		}
		balanced++
	}
	if balanced != 129 {
		t.Fatalf("%d of %d trials balanced, want the published 129", balanced, len(trials))
	}
}

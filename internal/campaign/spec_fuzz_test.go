package campaign_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign"
)

// FuzzSpecHash drives outside bytes through the strict decoder a
// submission takes (api.Decode into a campaign.Spec), then Normalize and
// Hash. For every spec that decodes and normalises: nothing panics, Hash
// is idempotent, and the normalised spec survives json.Marshal plus a
// strict re-decode with the same hash, also with its fields reordered
// and re-indented — the identity a journal or an artifact binds to
// cannot drift between a daemon and the worker it ships the spec to.
// Trials is not called: the grid size is uncapped.
//
// The corpus is the spec of every published artifact plus the request
// bodies of the wire tests; `go test -fuzz FuzzSpecHash` explores beyond
// it.
func FuzzSpecHash(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "artifacts", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	specs := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var art struct {
			Spec json.RawMessage `json:"spec"`
		}
		if json.Unmarshal(data, &art) == nil && len(art.Spec) > 0 {
			f.Add([]byte(art.Spec))
			specs++
		}
	}
	if specs == 0 {
		f.Fatal("no artifact specs found to seed the corpus")
	}
	for _, body := range []string{
		`{}`, `{"name":"sweep"}`, `{"name":"n"}`, `{"nope":1}`,
		`{"a":1,"zzz":2}`, `{"a":1} trailing`, `{"a":1}`,
		`{"seeds":3,"tasks":[12],"utilization":[1.5],"procs":[2,3],"edge_prob":-1}`,
		`{"analyzers":["moves","contention"],"analyzer_phases":["after","before"]}`,
		`{"analyzer_phases":["before","after"]}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var s campaign.Spec
		if api.Decode(bytes.NewReader(body), &s) != nil {
			return // refused at the door
		}
		if s.Normalize() != nil {
			return // refused by validation
		}
		h1, err := s.Hash()
		if err != nil {
			t.Fatalf("hash of a normalised spec: %v", err)
		}
		h2, err := s.Hash()
		if err != nil || h2 != h1 {
			t.Fatalf("Hash not idempotent: %s then %s (%v) for %s", h1, h2, err, body)
		}
		data, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("marshal normalised spec: %v", err)
		}
		var back campaign.Spec
		if err := api.Decode(bytes.NewReader(data), &back); err != nil {
			t.Fatalf("normalised spec %s does not survive the strict decode: %v", data, err)
		}
		h3, err := back.Hash()
		if err != nil || h3 != h1 {
			t.Fatalf("re-decoded spec hashes %s (%v), want %s: %s", h3, err, h1, data)
		}
		// The same fields in key order (not declaration order), indented.
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		reordered, err := json.MarshalIndent(fields, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		var again campaign.Spec
		if err := api.Decode(bytes.NewReader(reordered), &again); err != nil {
			t.Fatalf("reordered spec %s does not survive the strict decode: %v", reordered, err)
		}
		if h4, err := again.Hash(); err != nil || h4 != h1 {
			t.Fatalf("reordered spec hashes %s (%v), want %s: %s", h4, err, h1, reordered)
		}
	})
}

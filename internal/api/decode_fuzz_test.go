package api

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// wireTypes are the request bodies servers decode: spec submit,
// worker registration, and worker job start.
var wireTypes = []func() any{
	func() any { return &campaign.Spec{} },
	func() any { return &Registration{} },
	func() any { return &Job{} },
}

// FuzzDecode holds Decode to its contract on every wire type a server
// accepts: it never panics, and every failure is an error — a nil error
// means the body was at most MaxBody bytes of exactly one valid JSON
// value, and what it decoded survives marshal + strict re-decode
// unchanged.
func FuzzDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "artifacts", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
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
		}
	}
	job, err := json.Marshal(Job{ID: "r0", Spec: &campaign.Spec{Name: "sweep"}, Range: Range{Count: 4, Hi: 25}, Trace: "t-1", Span: "s-1"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(job)
	for _, body := range []string{
		`{"a":1,"zzz":2}`, `{"a":1} trailing`, `{"a":1}`, `{}]`, `null`,
		`{"id":"w1","addr":"http://w1"}`, `{"id":"w1"}`, `{"id":""}`,
		// The status field of the retired push heartbeat: now unknown.
		`{"id":"w1","status":{"job_id":"j","state":"running","done":3,"total":9}}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, newV := range wireTypes {
			v := newV()
			if Decode(bytes.NewReader(body), v) != nil {
				continue
			}
			if len(body) > MaxBody || !json.Valid(body) {
				t.Fatalf("Decode into %T accepted %q", v, body)
			}
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("marshal decoded %T: %v", v, err)
			}
			back := newV()
			if err := Decode(bytes.NewReader(data), back); err != nil {
				t.Fatalf("decoded %T %s does not survive the strict re-decode: %v", v, data, err)
			}
			if again, _ := json.Marshal(back); !bytes.Equal(again, data) {
				t.Fatalf("%T round trip changed %s to %s", v, data, again)
			}
		}
	})
}

// TestDecodeBodyLimit: a body over MaxBody is refused even when it is
// valid JSON, and one at the limit is read in full.
func TestDecodeBodyLimit(t *testing.T) {
	pad := func(n int) string { return `{"id":"w1"}` + strings.Repeat(" ", n-len(`{"id":"w1"}`)) }
	var reg Registration
	if err := Decode(strings.NewReader(pad(MaxBody)), &reg); err != nil || reg.ID != "w1" {
		t.Fatalf("body of exactly MaxBody bytes: %v, %+v", err, reg)
	}
	if err := Decode(strings.NewReader(pad(MaxBody+1)), &reg); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("body over MaxBody: %v", err)
	}
}

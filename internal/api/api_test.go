package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestErrorEnvelopeGolden pins the wire bytes of the error envelope:
// every server in the repo emits exactly this shape, and clients (and
// external tooling) are allowed to depend on it.
func TestErrorEnvelopeGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusNotFound, CodeNotFound, "no campaign %s", "abc")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	const golden = `{"error":{"code":"not_found","message":"no campaign abc"}}` + "\n"
	if got := rec.Body.String(); got != golden {
		t.Fatalf("envelope bytes:\n got %q\nwant %q", got, golden)
	}
}

// TestErrorRoundTrip drives WriteError → ReadError and checks the
// decoded *Error carries code, message, and status.
func TestErrorRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusConflict, CodeConflict, "busy with job %s", "j1")
	ae := ReadError(rec.Code, rec.Body.Bytes())
	if ae.Code != CodeConflict || ae.Status != http.StatusConflict {
		t.Fatalf("decoded %+v", ae)
	}
	if ae.Message != "busy with job j1" {
		t.Fatalf("message = %q", ae.Message)
	}
	if !IsCode(ae, CodeConflict) || IsCode(ae, CodeNotFound) {
		t.Fatal("IsCode dispatch broken")
	}
}

// TestReadErrorFallback: a non-envelope body (proxy page, panic text)
// still yields a usable CodeInternal error.
func TestReadErrorFallback(t *testing.T) {
	ae := ReadError(http.StatusBadGateway, []byte("<html>bad gateway</html>\n"))
	if ae.Code != CodeInternal || ae.Status != http.StatusBadGateway {
		t.Fatalf("decoded %+v", ae)
	}
	if !strings.Contains(ae.Message, "502") || !strings.Contains(ae.Message, "bad gateway") {
		t.Fatalf("message = %q", ae.Message)
	}
}

// TestDecodeStrict: unknown fields and trailing garbage must fail — a
// typoed spec key must not silently run the default grid.
func TestDecodeStrict(t *testing.T) {
	var v struct {
		A int `json:"a"`
	}
	if err := Decode(strings.NewReader(`{"a":1,"zzz":2}`), &v); err == nil {
		t.Fatal("unknown field accepted")
	}
	if err := Decode(strings.NewReader(`{"a":1} trailing`), &v); err == nil {
		t.Fatal("trailing data accepted")
	}
	if err := Decode(strings.NewReader(`{"a":1}]`), &v); err == nil {
		t.Fatal("trailing bracket accepted")
	}
	if err := Decode(strings.NewReader(`{"a":1}`), &v); err != nil || v.A != 1 {
		t.Fatalf("clean decode: %v, v=%+v", err, v)
	}
}

// TestJobGolden pins the job wire shape the coordinator dispatches and
// the worker decodes.
func TestJobGolden(t *testing.T) {
	job := Job{
		ID:    "r0",
		Spec:  &campaign.Spec{Name: "sweep"},
		Range: Range{Index: 0, Count: 4, Lo: 0, Hi: 25},
		Trace: "t-1",
		Span:  "s-1",
	}
	data, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"id":"r0"`, `"index":0`, `"count":4`, `"lo":0`, `"hi":25`, `"trace":"t-1"`, `"span":"s-1"`, `"name":"sweep"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("job JSON missing %s:\n%s", key, data)
		}
	}
	var back Job
	if err := Decode(strings.NewReader(string(data)), &back); err != nil {
		t.Fatalf("job does not survive the strict decode servers apply: %v", err)
	}
	if back.ID != job.ID || back.Range != job.Range || back.Trace != job.Trace {
		t.Fatalf("round trip: %+v", back)
	}
}

// TestCampaignStatusGolden pins the campaign status envelope,
// including omitempty behaviour: a queued status must not leak
// artifact links or timestamps it does not have.
func TestCampaignStatusGolden(t *testing.T) {
	sub := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	st := CampaignStatus{
		ID:          "deadbeef",
		Name:        "sweep",
		State:       CampaignQueued,
		Total:       50,
		SubmittedAt: sub,
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, absent := range []string{"cached", "error", "artifacts", "started_at", "finished_at"} {
		if strings.Contains(s, absent) {
			t.Fatalf("queued status leaks %q:\n%s", absent, s)
		}
	}
	var back CampaignStatus
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != st.ID || back.State != CampaignQueued || !back.SubmittedAt.Equal(sub) {
		t.Fatalf("round trip: %+v", back)
	}
	if back.State.Terminal() {
		t.Fatal("queued is not terminal")
	}
	if !CampaignDone.Terminal() || !CampaignFailed.Terminal() {
		t.Fatal("done/failed are terminal")
	}
}

// TestEventRoundTrip: each event type carries exactly its own payload.
func TestEventRoundTrip(t *testing.T) {
	evs := []Event{
		{Seq: 1, Type: EventStatus, Status: &CampaignStatus{ID: "x", State: CampaignRunning}},
		{Seq: 2, Type: EventProgress, Progress: &ProgressEvent{Done: 3, Accepted: 2, Total: 10, Line: "3/10"}},
		{Seq: 3, Type: EventTrial, Trial: &TrialEvent{Index: 7, Cell: "n=40", Outcome: "ok"}},
	}
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var back Event
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.Seq != ev.Seq || back.Type != ev.Type {
			t.Fatalf("round trip: %+v", back)
		}
		set := 0
		if back.Status != nil {
			set++
		}
		if back.Progress != nil {
			set++
		}
		if back.Trial != nil {
			set++
		}
		if set != 1 {
			t.Fatalf("event %s carries %d payloads:\n%s", ev.Type, set, data)
		}
	}
}

// TestDo drives the client helper against a live server: success JSON,
// raw-bytes targets, and envelope errors surfacing as *Error.
func TestDo(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, Registration{ID: "w1"})
	})
	mux.HandleFunc("GET /raw", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("raw-bytes"))
	})
	mux.HandleFunc("GET /missing", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, CodeNotFound, "nope")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx := context.Background()

	var reg Registration
	if err := Do(ctx, nil, http.MethodGet, srv.URL+"/ok", nil, &reg); err != nil || reg.ID != "w1" {
		t.Fatalf("ok: %v, %+v", err, reg)
	}
	var raw []byte
	if err := Do(ctx, nil, http.MethodGet, srv.URL+"/raw", nil, &raw); err != nil || string(raw) != "raw-bytes" {
		t.Fatalf("raw: %v, %q", err, raw)
	}
	err := Do(ctx, nil, http.MethodGet, srv.URL+"/missing", nil, nil)
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != CodeNotFound || ae.Status != http.StatusNotFound {
		t.Fatalf("missing: %v", err)
	}
}

// TestBaseURL pins address canonicalisation.
func TestBaseURL(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:8800":  "http://127.0.0.1:8800",
		"http://host:1/":  "http://host:1",
		"https://host/":   "https://host",
		"host:9000/base/": "http://host:9000/base",
	} {
		if got := BaseURL(in); got != want {
			t.Fatalf("BaseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

package coord

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// evRange is the range every synthetic event in these tests runs over.
var evRange = Range{Index: 0, Count: 2, Lo: 0, Hi: 10}

// rangeEv builds a minimally-valid range-scoped event.
func rangeEv(typ EventType, worker string) Event {
	rng := evRange
	return Event{
		Type: typ, Worker: worker, Range: &rng,
		Job: "job-0", Trace: "aabbccdd00112233", Span: "aabbccdd00112233-001", Attempt: 1,
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c"+EventLogSuffix)
	e, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatal(err)
	}
	e.Append(Event{Type: EvRegistered, Worker: "w1"})
	e.Append(rangeEv(EvDispatch, "w1"))
	ev := rangeEv(EvShardLanded, "w1")
	ev.Detail = "tenancy 12ms"
	e.Append(ev)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	hdr, events, err := ReadEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Magic != EventLogMagic || hdr.Version != EventLogVersion {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Name != "chaos" || hdr.SpecHash != "deadbeef" || hdr.Splits != 2 {
		t.Fatalf("header = %+v", hdr)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[1].Type != EvDispatch || events[1].Range == nil || events[1].Range.Hi != 10 {
		t.Errorf("dispatch event = %+v", events[1])
	}
	if err := ValidateEvents(hdr, events); err != nil {
		t.Error(err)
	}
}

// A reopened log must refuse a different campaign and otherwise extend
// the sequence, not restart it — that is what makes Seq comparable
// across coordinator restarts.
func TestEventLogReopenContinuesSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c"+EventLogSuffix)
	e, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatal(err)
	}
	e.Append(Event{Type: EvRegistered, Worker: "w1"})
	e.Append(rangeEv(EvDispatch, "w1"))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenEventLog(path, "chaos", "0therhash", 2); err == nil {
		t.Fatal("reopening with a different spec hash must fail")
	}

	e2, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatal(err)
	}
	e2.Append(rangeEv(EvShardLanded, "w1"))
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, events, err := ReadEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[2].Seq != 3 {
		t.Fatalf("after reopen: %d events, last seq %d — want 3 events ending at seq 3", len(events), events[len(events)-1].Seq)
	}
	if err := ValidateEvents(hdr, events); err != nil {
		t.Error(err)
	}
}

// A torn final record — the killed writer's signature — is dropped
// whether or not the newline made it out; corruption anywhere earlier
// is a hard error, exactly the journal's rule.
func TestEventLogTornTailAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c"+EventLogSuffix)
	e, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatal(err)
	}
	e.Append(Event{Type: EvRegistered, Worker: "w1"})
	e.Append(rangeEv(EvDispatch, "w1"))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Half a frame, no newline.
	if err := os.WriteFile(path, append(append([]byte{}, intact...), []byte("0000002a 1234")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, events, err := ReadEventLog(path); err != nil || len(events) != 2 {
		t.Fatalf("unterminated torn tail: events=%d err=%v, want 2 intact events", len(events), err)
	}

	// A complete line whose checksum lies (payload truncated in flight).
	if err := os.WriteFile(path, append(append([]byte{}, intact...), []byte("00000040 00000000 {\"seq\":3\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, events, err := ReadEventLog(path); err != nil || len(events) != 2 {
		t.Fatalf("newline-terminated torn tail: events=%d err=%v, want 2 intact events", len(events), err)
	}

	// The same damage mid-file is corruption, not a torn tail.
	lines := strings.SplitAfter(string(intact), "\n")
	if len(lines) < 3 {
		t.Fatalf("expected 3 records, got %d", len(lines))
	}
	corrupt := []byte(lines[0] + strings.Replace(lines[1], "{", "[", 1) + lines[2])
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadEventLog(path); err == nil {
		t.Fatal("mid-file corruption must be a hard error")
	}

	// Empty files are not logs.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadEventLog(path); err == nil {
		t.Fatal("empty file must be an error")
	}
}

func TestValidateEventsRejections(t *testing.T) {
	hdr := EventLogHeader{Magic: EventLogMagic, Version: EventLogVersion, Name: "c", SpecHash: "d", Splits: 2}
	ok := func(evs ...Event) error {
		for i := range evs {
			if evs[i].Seq == 0 {
				evs[i].Seq = int64(i + 1)
			}
		}
		return ValidateEvents(hdr, evs)
	}
	if err := ok(Event{Type: EvRegistered, Worker: "w"}, rangeEv(EvDispatch, "w")); err != nil {
		t.Fatalf("valid log rejected: %v", err)
	}
	if err := ok(Event{Type: "bogus"}); err == nil {
		t.Error("unknown type accepted")
	}
	if err := ValidateEvents(hdr, []Event{{Seq: 2, Type: EvMerged}, {Seq: 2, Type: EvMerged}}); err == nil {
		t.Error("non-increasing seq accepted")
	}
	bare := rangeEv(EvDispatch, "w")
	bare.Range = nil
	if err := ok(bare); err == nil {
		t.Error("range-scoped event without range accepted")
	}
	untraced := rangeEv(EvRequeue, "w")
	untraced.Trace = ""
	if err := ok(untraced); err == nil {
		t.Error("range-scoped event without trace accepted")
	}
	anon := Event{Type: EvWorkerDead}
	if err := ok(anon); err == nil {
		t.Error("worker event without worker accepted")
	}
	lazy := rangeEv(EvRequeue, "w")
	lazy.Attempt = 0
	if err := ok(lazy); err == nil {
		t.Error("requeue without attempt accepted")
	}
}

func TestRangeHistory(t *testing.T) {
	other := rangeEv(EvDispatch, "w2")
	rng2 := Range{Index: 1, Count: 2, Lo: 10, Hi: 20}
	other.Range = &rng2
	events := []Event{
		{Seq: 1, Type: EvRegistered, Worker: "w1"},
		rangeEv(EvDispatch, "w1"),
		other,
		rangeEv(EvShardLanded, "w1"),
	}
	got := RangeHistory(events, 0)
	if len(got) != 2 || got[0].Type != EvDispatch || got[1].Type != EvShardLanded {
		t.Fatalf("history of range 0 = %+v", got)
	}
	if len(RangeHistory(events, 5)) != 0 {
		t.Error("history of an unknown range should be empty")
	}
}

// A coordinator killed mid-append leaves half a frame behind. The
// restarted coordinator must truncate it before appending: otherwise
// its first event merges into the torn line and is lost, its second
// turns the file into mid-file corruption, and the next restart
// refuses the log.
func TestEventLogReopenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c"+EventLogSuffix)
	e, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatal(err)
	}
	e.Append(Event{Type: EvRegistered, Worker: "w1"})
	e.Append(rangeEv(EvDispatch, "w1"))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0000003c 1234abcd {"seq":3,"mono_`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatal(err)
	}
	e2.Append(Event{Type: EvReRegistered, Worker: "w1"})
	e2.Append(rangeEv(EvShardLanded, "w1"))
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, events, err := ReadEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if err := ValidateEvents(hdr, events); err != nil {
		t.Error(err)
	}
	e3, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if err := e3.Close(); err != nil {
		t.Fatal(err)
	}
}

// A log whose header never fully reached disk holds no history worth
// keeping; reopening it starts a fresh log, as a beheaded journal does.
func TestEventLogReopenHeaderlessStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c"+EventLogSuffix)
	e, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatalf("reopening a headerless log: %v", err)
	}
	e2.Append(Event{Type: EvRegistered, Worker: "w1"})
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, events, err := ReadEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.SpecHash != "deadbeef" || len(events) != 1 || events[0].Seq != 1 {
		t.Fatalf("fresh log: header %+v, %d events", hdr, len(events))
	}
}

// The event log fixture (shared with internal/journal, which pins its
// framing) decodes to its eight events under the current schema.
func TestEventLogFixture(t *testing.T) {
	hdr, events, err := ReadEventLog("../journal/testdata/v1.events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Name != "fixture" || hdr.Splits != 2 || len(events) != 8 {
		t.Fatalf("header %+v, %d events; want fixture/2 with 8 events", hdr, len(events))
	}
	if err := ValidateEvents(hdr, events); err != nil {
		t.Error(err)
	}
	if h := RangeHistory(events, 1); len(h) != 2 || h[1].Type != EvRequeue || h[1].BackoffNS != 100000000 {
		t.Errorf("range 1 history = %+v", h)
	}
}

// Two coordinators on one event log would interleave their sequence
// numbers; the second open must fail while the first holds the log.
func TestEventLogExclusive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c"+EventLogSuffix)
	e, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEventLog(path, "chaos", "deadbeef", 2); err == nil {
		t.Fatal("second open of a live event log succeeded")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := OpenEventLog(path, "chaos", "deadbeef", 2)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

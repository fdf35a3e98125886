package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The testdata fixtures were written by the record-log code as it stood
// before the trial journal and the event log shared one implementation:
// a 4-trial unsharded journal and an 8-event coordinator event log.
// They pin the on-disk format — any change to the framing, the checksum
// or the header encoding breaks this test.
var fixtures = []struct {
	file    string
	records int
}{
	{"testdata/v3.trial.jsonl", 5},
	{"testdata/v1.events.jsonl", 9},
}

func readFixture(t testing.TB, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFixturesDecodeAndReframe(t *testing.T) {
	for _, fx := range fixtures {
		data := readFixture(t, fx.file)
		records, clean, err := ScanRecords(data)
		if err != nil || clean != len(data) || len(records) != fx.records {
			t.Fatalf("%s: %d records, clean %d of %d, err %v; want %d intact records",
				fx.file, len(records), clean, len(data), err, fx.records)
		}
		var reframed []byte
		for _, r := range records {
			reframed = appendFrame(reframed, r)
		}
		if !bytes.Equal(reframed, data) {
			t.Errorf("%s: re-framed payloads differ from the file", fx.file)
		}
	}

	// The trial fixture is a version-3 journal: its header still decodes,
	// and Read refuses it for predating the steady-state fold.
	trial, _, _ := ScanRecords(readFixture(t, "testdata/v3.trial.jsonl"))
	var h Header
	if err := json.Unmarshal(trial[0], &h); err != nil {
		t.Fatal(err)
	}
	if _, err := Read("testdata/v3.trial.jsonl"); err == nil || !strings.Contains(err.Error(), "steady-state fold") {
		t.Fatalf("Read of the version-3 fixture: %v", err)
	}
	if h.Magic != Magic || h.Version != 3 || h.Spec.Name != "fixture" ||
		h.SpecHash != "c10c1e0300336149888fe22b9b71ca6c64cc03c564e7ea80eb842983944b6307" ||
		h.ShardIndex != 0 || h.ShardCount != 1 || h.Lo != 0 || h.Hi != 4 || h.Total != 4 {
		t.Fatalf("trial fixture header = %+v", h)
	}

	// The event log's schema belongs to internal/coord; here only its
	// header binding is checked.
	records, _, _ := ScanRecords(readFixture(t, "testdata/v1.events.jsonl"))
	var eh struct {
		Magic    string `json:"magic"`
		Version  int    `json:"version"`
		Name     string `json:"name"`
		SpecHash string `json:"spec_hash"`
		Splits   int    `json:"splits"`
	}
	if err := json.Unmarshal(records[0], &eh); err != nil {
		t.Fatal(err)
	}
	if eh.Magic != "lbevents" || eh.Version != 1 || eh.Name != "fixture" || eh.SpecHash != h.SpecHash || eh.Splits != 2 {
		t.Fatalf("event log fixture header = %+v", eh)
	}
}

// goodLine is the scanner's oracle, independent of its parser: a line
// (newline stripped) is an intact frame exactly when re-framing its
// payload reproduces it.
func goodLine(line []byte) bool {
	if len(line) < frameOverhead-1 {
		return false
	}
	framed := appendFrame(nil, line[frameOverhead-1:])
	return bytes.Equal(framed[:len(framed)-1], line)
}

func FuzzRecordLog(f *testing.F) {
	for _, fx := range fixtures {
		data := readFixture(f, fx.file)
		f.Add(data)
		f.Add(data[:len(data)-7])
		flipped := append([]byte(nil), data...)
		flipped[len(data)/2] ^= 0x20
		f.Add(flipped)
	}
	// A generated journal: the last third of the smoke sweep.
	path := filepath.Join(f.TempDir(), "trial.jsonl")
	runJournaled(f, path, 2, 2, 3)
	f.Add(readFixture(f, path))
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add([]byte("0000000A 00000000 {}\n"))
	f.Add(appendFrame(appendFrame(nil, []byte(`{"a":1}`)), []byte(`{"b":2}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, clean, err := ScanRecords(data)

		// Walk the lines with the oracle: the scanner must stop at the
		// first bad frame, call it torn exactly when it is the last
		// line, and corruption otherwise.
		want, off := 0, 0
		corrupt := false
		for off < len(data) {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 || !goodLine(data[off:off+nl]) {
				corrupt = nl >= 0 && off+nl+1 < len(data)
				break
			}
			want++
			off += nl + 1
		}
		if corrupt {
			if err == nil {
				t.Fatalf("bad frame at offset %d before the last line went unreported", off)
			}
			return
		}
		if err != nil {
			t.Fatalf("torn or clean input reported as corrupt: %v", err)
		}
		if len(records) != want || clean != off {
			t.Fatalf("scanned %d records to offset %d, oracle says %d to %d", len(records), clean, want, off)
		}

		// Only verified payloads come back, and they re-frame to
		// exactly the clean prefix.
		var reframed []byte
		for _, r := range records {
			reframed = appendFrame(reframed, r)
		}
		if !bytes.Equal(reframed, data[:clean]) {
			t.Fatal("re-framed payloads differ from the clean prefix")
		}

		// Every byte-truncation of the clean prefix (a valid log) scans
		// to a prefix of its records: whatever a crash cuts off, the
		// surviving records are intact and in order. The sweep is
		// quadratic, so inputs the mutator has grown large skip it.
		if clean > 1<<14 {
			return
		}
		ends := make([]int, len(records))
		for i, end := 0, 0; i < len(records); i++ {
			end += len(records[i]) + frameOverhead
			ends[i] = end
		}
		for cut := 0; cut <= clean; cut++ {
			got, gotClean, err := ScanRecords(data[:cut])
			n := 0
			for n < len(ends) && ends[n] <= cut {
				n++
			}
			if err != nil || len(got) != n || (n > 0 && gotClean != ends[n-1]) || (n == 0 && gotClean != 0) {
				t.Fatalf("cut at %d: %d records to %d (err %v), want the first %d", cut, len(got), gotClean, err, n)
			}
			for i := range got {
				if !bytes.Equal(got[i], records[i]) {
					t.Fatalf("cut at %d: record %d differs", cut, i)
				}
			}
		}
	})
}

// openLog opens path as a record log whose header is hdr, accepting
// any existing content, and returns the records check saw.
func openLog(t *testing.T, path, hdr string) (*RecordLog, [][]byte, bool) {
	t.Helper()
	var seen [][]byte
	var torn bool
	l, err := OpenRecordLog(path, []byte(hdr), func(records [][]byte, t bool) error {
		seen, torn = records, t
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, seen, torn
}

// TestRecordLogLifecycle: a new log gets its header; a reopened log
// hands its records to check, truncates a torn tail before appending,
// and a log cut inside its header starts over.
func TestRecordLogLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, seen, _ := openLog(t, path, `{"h":1}`)
	if seen != nil {
		t.Fatal("check called on a new log")
	}
	for _, p := range []string{`{"r":1}`, `{"r":2}`} {
		if err := l.Append([]byte(p), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{}`), 1, nil); !errors.Is(err, errClosed) {
		t.Fatalf("append after close: %v", err)
	}
	intact := readFixture(t, path)

	// A torn tail is reported to check, then cut before the append.
	if err := os.WriteFile(path, append(append([]byte(nil), intact...), "00000007 1234"...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, seen, torn := openLog(t, path, `{"h":2}`)
	if len(seen) != 3 || !torn || string(seen[0]) != `{"h":1}` {
		t.Fatalf("reopen: check saw %d records, torn=%v", len(seen), torn)
	}
	if err := l.Append([]byte(`{"r":3}`), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	want := appendFrame(append([]byte(nil), intact...), []byte(`{"r":3}`))
	if got := readFixture(t, path); !bytes.Equal(got, want) {
		t.Fatalf("after repair and append:\n%s\nwant\n%s", got, want)
	}

	// Cut inside the header: nothing to keep, the log starts over.
	if err := os.WriteFile(path, intact[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	l, seen, _ = openLog(t, path, `{"h":3}`)
	if seen != nil {
		t.Fatal("check called on a headerless log")
	}
	if err := l.Close(nil); err != nil {
		t.Fatal(err)
	}
	if got := readFixture(t, path); !bytes.Equal(got, appendFrame(nil, []byte(`{"h":3}`))) {
		t.Fatalf("headerless log reinitialised to %q", got)
	}
}

// TestRecordLogRefusalLeavesFileUntouched: when check refuses the log,
// or the file is corrupt, or another writer holds it, not a byte
// changes — the torn tail included.
func TestRecordLogRefusalLeavesFileUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.jsonl")
	runJournaled(t, path, 2, 0, 1)
	data := append(readFixture(t, path), "00000010 abcd"...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	untouched := func(what string) {
		t.Helper()
		if !bytes.Equal(readFixture(t, path), data) {
			t.Fatalf("%s modified the file", what)
		}
	}

	refuse := errors.New("refused")
	if _, err := OpenRecordLog(path, []byte(`{}`), func([][]byte, bool) error { return refuse }); !errors.Is(err, refuse) {
		t.Fatalf("refusing check: %v", err)
	}
	untouched("a refusing check")

	other := testSpec()
	other.Seeds = 7
	hdr, err := NewHeader(other, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(path, hdr, nil); err == nil {
		t.Fatal("resume with a foreign spec succeeded")
	}
	untouched("a refused Resume")

	corrupt := append([]byte(nil), data...)
	corrupt[30] ^= 0x01
	data = corrupt
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRecordLog(path, []byte(`{}`), func([][]byte, bool) error { return nil }); err == nil {
		t.Fatal("opening a corrupt log succeeded")
	}
	untouched("opening a corrupt log")
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard.jsonl")
	for _, content := range []string{"first\n", "second\n"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got := readFixture(t, path); string(got) != content {
			t.Fatalf("published %q, want %q", got, content)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), nil); err == nil {
		t.Fatal("publishing into a missing directory succeeded")
	}
}

package journal

// The record log is the one on-disk format under both the trial journal
// and the coordinator event log: an append-only stream of framed,
// checksummed records,
//
//	<length:8 hex> <crc32c:8 hex> <payload JSON>\n
//
// whose first record is a format-specific header. This file owns all of
// it but the payloads' meaning: framing, checksum, the torn-tail rule,
// writer exclusion, and the open/repair/append/sync/close cycle. The
// spec is docs/journal.md ("File format", "Failure semantics").

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// castagnoli is the CRC-32C table (the polynomial used by ext4, iSCSI —
// chosen over IEEE for its better burst-error detection).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the frame's fixed cost: two 8-digit hex fields,
// their two separating spaces, and the newline.
const frameOverhead = 19

// appendFrame appends payload to dst as one framed record.
func appendFrame(dst, payload []byte) []byte {
	return append(append(framePrefix(dst, payload), payload...), '\n')
}

// framePrefix appends the "<length> <crc32c> " prefix of payload's
// frame to dst.
func framePrefix(dst, payload []byte) []byte {
	return fmt.Appendf(dst, "%08x %08x ", len(payload), crc32.Checksum(payload, castagnoli))
}

// ScanRecords splits record-log bytes into their verified payloads
// (sub-slices of data) and returns the length of the clean prefix they
// span. A frame that fails to verify is a torn tail when it is the last
// line or has no newline — the only damage an interrupted append can
// leave, even when a power loss persists the append's sectors out of
// order — and scanning stops there with clean < len(data). A bad frame
// followed by more data cannot come from an interrupted append: that is
// in-place corruption and an error.
func ScanRecords(data []byte) (records [][]byte, clean int, err error) {
	for clean < len(data) {
		rest := data[clean:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn: the final append never wrote its newline
		}
		line := rest[:nl]
		if payload, ok := verifyFrame(line); ok {
			records = append(records, payload)
			clean += nl + 1
			continue
		}
		if clean+nl+1 == len(data) {
			break // torn: a damaged final line
		}
		return nil, 0, fmt.Errorf("corrupt record %d at offset %d", len(records), clean)
	}
	return records, clean, nil
}

// verifyFrame returns the payload of one framed line (newline
// stripped) if the line is exactly what appendFrame writes for that
// payload — length and checksum agree, in lowercase zero-padded hex —
// so the verified prefix of any input re-frames to itself byte for
// byte.
func verifyFrame(line []byte) ([]byte, bool) {
	if len(line) < frameOverhead-1 {
		return nil, false
	}
	payload := line[frameOverhead-1:]
	var prefix [frameOverhead - 1]byte
	return payload, bytes.Equal(framePrefix(prefix[:0], payload), line[:frameOverhead-1])
}

// RecordLog is an open record log: exclusively locked for its lifetime
// and positioned to append after the last intact record. It is safe for
// concurrent use. The *obs.Recorder parameters receive the journal
// telemetry (records, bytes, fsync count and latency); nil records
// nothing.
type RecordLog struct {
	mu       sync.Mutex
	f        *os.File
	unlock   func() // releases the writer lock (flock or lease sidecar)
	unsynced int
}

// OpenRecordLog opens the record log at path for appending, creating
// it if needed, and locks it exclusively before reading a byte. When
// the file holds an intact first record, check receives every verified
// record and whether a torn tail follows them; if check errors, the
// log is refused and the file is left exactly as it was. Only once
// check accepts is the torn tail (if any) truncated. A file without an
// intact first record — new, empty, or cut inside its header — is
// reinitialised to hold just header, fsynced, and check is not called.
func OpenRecordLog(path string, header []byte, check func(records [][]byte, torn bool) error) (*RecordLog, error) {
	return openRecordLog(path, os.O_CREATE, header, check)
}

// openRecordLog is OpenRecordLog with the creation flags given
// (O_CREATE|O_EXCL for a log that must not exist yet).
func openRecordLog(path string, flag int, header []byte, check func([][]byte, bool) error) (*RecordLog, error) {
	// O_APPEND: every write lands at the end, wherever prepare cut it.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, err
	}
	unlock, err := lockFile(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: locking %s: %w — is another run still writing it?", path, err)
	}
	if err := prepare(f, path, header, check); err != nil {
		unlock()
		f.Close()
		return nil, err
	}
	return &RecordLog{f: f, unlock: unlock}, nil
}

// prepare validates the locked file's content through check and leaves
// it ready to append: torn tail cut, or reinitialised to header alone.
func prepare(f *os.File, path string, header []byte, check func([][]byte, bool) error) error {
	data, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	records, clean, err := ScanRecords(data)
	if err != nil {
		return fmt.Errorf("journal: %s: %w", path, err)
	}
	if len(records) == 0 {
		if err := f.Truncate(0); err != nil {
			return err
		}
		if _, err := f.Write(appendFrame(make([]byte, 0, len(header)+frameOverhead), header)); err != nil {
			return fmt.Errorf("journal: writing header of %s: %w", path, err)
		}
		return f.Sync()
	}
	if err := check(records, clean < len(data)); err != nil {
		return err
	}
	if clean < len(data) {
		return f.Truncate(int64(clean))
	}
	return nil
}

// errClosed is returned by an Append after Close.
var errClosed = errors.New("record log is closed")

// Append writes payload as one framed record in a single write call,
// and fsyncs once syncEvery records have accumulated since the last
// sync (syncEvery ≤ 0 leaves syncing to Close).
func (l *RecordLog) Append(payload []byte, syncEvery int, rec *obs.Recorder) error {
	frame := appendFrame(make([]byte, 0, len(payload)+frameOverhead), payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	rec.Add(obs.CounterJournalRecords, 1)
	rec.Add(obs.CounterJournalBytes, int64(len(frame)))
	l.unsynced++
	if syncEvery > 0 && l.unsynced >= syncEvery {
		ts := rec.Clock()
		err := l.f.Sync()
		rec.Stamp(obs.StageJournalFsync, ts)
		rec.Add(obs.CounterJournalFsyncs, 1)
		if err != nil {
			return err
		}
		l.unsynced = 0
	}
	return nil
}

// Close syncs and closes the log, releasing the writer lock.
// Idempotent.
func (l *RecordLog) Close(rec *obs.Recorder) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	defer l.unlock()
	rec.Add(obs.CounterJournalFsyncs, 1)
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic publishes data at path all or nothing: it writes a
// same-directory temp file, fsyncs it, and renames it into place, so
// a crash at any point leaves either the old file (or none) or the
// complete new one — never a torn file.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

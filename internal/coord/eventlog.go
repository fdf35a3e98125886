package coord

// The coordinator event log is the durable flight recorder of a
// campaign's control plane: every lease transition, liveness decision,
// retry, speculation, and landing appends one structured record, so a
// chaotic multi-host run can be reconstructed — and asserted on —
// after the fact. It is a journal.RecordLog, the trial journal's
// format (docs/journal.md): a coordinator killed mid-append leaves at
// most one torn tail record, which the reader drops and a reopening
// coordinator truncates, while corruption anywhere earlier is a hard
// error rather than silently skipped. The first record is the
// EventLogHeader binding the file to a campaign; a restarted
// coordinator extends the history instead of erasing it, and the
// writer holds the file exclusively, so two coordinators cannot
// interleave their sequence numbers.
//
// The log sits outside the artifact byte-identity contract, like every
// sidecar: it records wall-clock decisions that legitimately differ
// between byte-identical runs.

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/journal"
)

const (
	// EventLogMagic identifies a coordinator event log; EventLogVersion
	// its record schema.
	EventLogMagic   = "lbevents"
	EventLogVersion = 1

	// EventLogSuffix is the conventional file name suffix:
	// <campaign>+EventLogSuffix next to the journal dir.
	EventLogSuffix = ".events.jsonl"
)

// EventType names one kind of control-plane event. The catalogue is
// closed: ValidateEvents rejects unknown types, so consumers can
// switch exhaustively (docs/observability.md documents each).
type EventType string

const (
	// EvRegistered / EvReRegistered: a worker joined (or rejoined after
	// a restart) the pool.
	EvRegistered   EventType = "worker_registered"
	EvReRegistered EventType = "worker_reregistered"
	// EvWorkerDead: liveness timeout expired — the worker is buried and
	// any lease it held is about to re-queue.
	EvWorkerDead EventType = "worker_dead"
	// EvDispatch: a range was assigned and started on a worker
	// (Attempt counts every Start of the range, speculation included).
	EvDispatch EventType = "dispatch"
	// EvSpeculate: the straggler detector re-issued a leased range to a
	// second worker; Detail carries the projection/diagnosis.
	EvSpeculate EventType = "speculate"
	// EvAmnesia: a status poll found the worker alive but without its
	// job — it restarted and lost the assignment.
	EvAmnesia EventType = "amnesia"
	// EvJobFailed: the worker reported the job failed; Detail carries
	// the worker's error.
	EvJobFailed EventType = "job_failed"
	// EvRequeue: a failed attempt put the range back in the pending
	// queue; BackoffNS is the retry delay, Attempt the failure count.
	EvRequeue EventType = "requeue"
	// EvJournalRejected: a fetched journal failed validation and was
	// discarded (counts as a failed attempt).
	EvJournalRejected EventType = "journal_rejected"
	// EvDuplicateDiscard: the slower twin of a speculated range handed
	// back a journal after the winner landed; it was discarded.
	EvDuplicateDiscard EventType = "duplicate_discard"
	// EvShardLanded: a validated shard journal was written under the
	// coordinator's journal dir; the lease is journaled.
	EvShardLanded EventType = "shard_landed"
	// EvShardRecovered: a restarted coordinator seated an
	// already-fetched journal from disk without re-running the range.
	EvShardRecovered EventType = "shard_recovered"
	// EvFatal: the campaign turned fatal (range out of attempts, or an
	// unrecoverable landing error).
	EvFatal EventType = "fatal"
	// EvMerged: every shard folded into the final artifact.
	EvMerged EventType = "merged"
)

// knownEventTypes is the closed catalogue ValidateEvents enforces.
var knownEventTypes = map[EventType]bool{
	EvRegistered: true, EvReRegistered: true, EvWorkerDead: true,
	EvDispatch: true, EvSpeculate: true, EvAmnesia: true,
	EvJobFailed: true, EvRequeue: true, EvJournalRejected: true,
	EvDuplicateDiscard: true, EvShardLanded: true, EvShardRecovered: true,
	EvFatal: true, EvMerged: true,
}

// EventLogHeader is the first record of every event log, binding it to
// one campaign.
type EventLogHeader struct {
	Magic    string `json:"magic"`
	Version  int    `json:"version"`
	Name     string `json:"name"`
	SpecHash string `json:"spec_hash"`
	Splits   int    `json:"splits"`
}

// Event is one control-plane record. MonoNS is monotonic nanoseconds
// since the emitting coordinator started (restarts reset it — compare
// Seq across restarts, MonoNS within one). Range/Job/Trace/Span are
// set on every range-scoped event; Span names the specific dispatch
// attempt, Trace the range across all attempts.
type Event struct {
	Seq       int64     `json:"seq"`
	MonoNS    int64     `json:"mono_ns"`
	Type      EventType `json:"type"`
	Worker    string    `json:"worker,omitempty"`
	Range     *Range    `json:"range,omitempty"`
	Job       string    `json:"job,omitempty"`
	Trace     string    `json:"trace,omitempty"`
	Span      string    `json:"span,omitempty"`
	Attempt   int       `json:"attempt,omitempty"`
	State     string    `json:"state,omitempty"` // lease state after the event
	BackoffNS int64     `json:"backoff_ns,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

// EventLog is the append-only writer. Append errors are sticky and
// deliberately not campaign-fatal: losing the flight recorder is worth
// a loud log line, not an aborted sweep — callers check Err at the end.
type EventLog struct {
	mu   sync.Mutex
	log  *journal.RecordLog
	seq  int64
	err  error
	path string
}

// OpenEventLog opens (or creates) the event log at path for the given
// campaign. A file with an intact header must match the campaign, and
// the writer continues the Seq sequence after the last intact record,
// so a coordinator restart extends the history; a torn final record is
// truncated first. A new file, or one whose header never reached disk,
// starts a fresh log.
func OpenEventLog(path, name, specHash string, splits int) (*EventLog, error) {
	hdr, err := json.Marshal(EventLogHeader{Magic: EventLogMagic, Version: EventLogVersion, Name: name, SpecHash: specHash, Splits: splits})
	if err != nil {
		return nil, err
	}
	e := &EventLog{path: path}
	e.log, err = journal.OpenRecordLog(path, hdr, func(records [][]byte, _ bool) error {
		old, events, err := decodeEventLog(path, records)
		if err != nil {
			return fmt.Errorf("%w — delete the file to start a fresh log", err)
		}
		if old.SpecHash != specHash {
			return fmt.Errorf("coord: event log %s carries spec %.12s…, campaign is %.12s… — delete it to start a fresh log", path, old.SpecHash, specHash)
		}
		if n := len(events); n > 0 {
			e.seq = events[n-1].Seq
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("coord: opening event log: %w", err)
	}
	return e, nil
}

// Append stamps the next sequence number on ev and writes it, fsyncing
// per record — events are low-rate and each one is a fault-handling
// decision worth surviving a crash. The first failure is retained; all
// later appends are no-ops.
func (e *EventLog) Append(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	e.seq++
	ev.Seq = e.seq
	payload, err := json.Marshal(ev)
	if err == nil {
		err = e.log.Append(payload, 1, nil)
	}
	if err != nil {
		e.err = fmt.Errorf("coord: appending event log: %w", err)
	}
}

// Err returns the sticky append error, if any.
func (e *EventLog) Err() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Path returns the log's file path.
func (e *EventLog) Path() string {
	if e == nil {
		return ""
	}
	return e.path
}

// Close syncs and closes the log, returning the sticky append error
// first.
func (e *EventLog) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.log.Close(nil); e.err == nil {
		e.err = err
	}
	return e.err
}

// ReadEventLog parses an event log: header plus every intact event in
// order. A torn final record (the signature of a killed writer) is
// dropped; any earlier damage is a hard error.
func ReadEventLog(path string) (EventLogHeader, []Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return EventLogHeader{}, nil, err
	}
	records, _, err := journal.ScanRecords(data)
	if err != nil {
		return EventLogHeader{}, nil, fmt.Errorf("coord: %s: %w", path, err)
	}
	return decodeEventLog(path, records)
}

// decodeEventLog interprets an event log's verified record payloads.
// A payload that verified but does not decode is corruption — a torn
// write cannot produce a verified frame.
func decodeEventLog(name string, records [][]byte) (EventLogHeader, []Event, error) {
	var hdr EventLogHeader
	if len(records) == 0 {
		return hdr, nil, fmt.Errorf("coord: %s: no intact event log header", name)
	}
	if err := json.Unmarshal(records[0], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("coord: %s: decoding header: %w", name, err)
	}
	if hdr.Magic != EventLogMagic {
		return hdr, nil, fmt.Errorf("coord: %s is not an event log (magic %q)", name, hdr.Magic)
	}
	if hdr.Version != EventLogVersion {
		return hdr, nil, fmt.Errorf("coord: %s is event log version %d, this build reads %d", name, hdr.Version, EventLogVersion)
	}
	events := make([]Event, len(records)-1)
	for i, payload := range records[1:] {
		if err := json.Unmarshal(payload, &events[i]); err != nil {
			return hdr, nil, fmt.Errorf("coord: %s record %d: decoding event: %w", name, i+1, err)
		}
	}
	return hdr, events, nil
}

// ValidateEvents checks a decoded log against the record schema: known
// event types only, strictly increasing Seq, and the per-type required
// fields (range-scoped events carry range, job, and trace; worker
// events carry the worker ID). lbcheck -eventlog and the fleet tests
// run it over real chaos runs' logs.
func ValidateEvents(hdr EventLogHeader, events []Event) error {
	if hdr.Magic != EventLogMagic {
		return fmt.Errorf("coord: bad event log magic %q", hdr.Magic)
	}
	var lastSeq int64
	for i, ev := range events {
		if !knownEventTypes[ev.Type] {
			return fmt.Errorf("coord: event %d: unknown type %q", i, ev.Type)
		}
		if ev.Seq <= lastSeq {
			return fmt.Errorf("coord: event %d: seq %d not increasing (prev %d)", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.MonoNS < 0 {
			return fmt.Errorf("coord: event %d: negative mono_ns", i)
		}
		switch ev.Type {
		case EvDispatch, EvSpeculate, EvRequeue, EvShardLanded, EvShardRecovered,
			EvDuplicateDiscard, EvJournalRejected, EvJobFailed, EvAmnesia:
			if ev.Range == nil {
				return fmt.Errorf("coord: event %d (%s): missing range", i, ev.Type)
			}
			if ev.Trace == "" {
				return fmt.Errorf("coord: event %d (%s): missing trace", i, ev.Type)
			}
			if ev.Job == "" {
				return fmt.Errorf("coord: event %d (%s): missing job", i, ev.Type)
			}
		}
		switch ev.Type {
		case EvRegistered, EvReRegistered, EvWorkerDead, EvDispatch, EvSpeculate,
			EvAmnesia, EvJobFailed, EvDuplicateDiscard, EvJournalRejected, EvShardLanded:
			if ev.Worker == "" {
				return fmt.Errorf("coord: event %d (%s): missing worker", i, ev.Type)
			}
		}
		if ev.Type == EvRequeue && ev.Attempt < 1 {
			return fmt.Errorf("coord: event %d: requeue without attempt count", i)
		}
	}
	return nil
}

// RangeHistory filters the events of one range index, in order — the
// full lease history a post-mortem (or the chaos test) reconstructs.
func RangeHistory(events []Event, index int) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Range != nil && ev.Range.Index == index {
			out = append(out, ev)
		}
	}
	return out
}

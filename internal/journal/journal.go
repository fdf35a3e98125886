// Package journal persists campaign trial results as they complete, so
// a killed multi-hour sweep resumes instead of restarting and a sweep
// split across hosts can be merged back into one artifact.
//
// A journal is a record log (see recordlog.go and docs/journal.md):
// length-framed, CRC-32C-checksummed JSON records, appended with one
// write call each and fsynced every SyncEvery records and on Close.
// The first record's payload is the Header, which binds the file to a
// campaign (the SHA-256 of the normalised spec), a shard of its trial
// enumeration ([Lo,Hi) of Total), and the spec itself, so a journal is
// self-describing: the merge tool rebuilds the full Result from shard
// files alone. Every following record is one campaign.TrialResult, in
// completion order. After a SIGKILL or power loss the file holds a
// clean prefix of the stream plus at most one torn record, which is
// dropped (the trial re-runs on resume); damage anywhere earlier is
// corruption and a hard error, never silently skipped.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"
	"strings"

	"repro/internal/campaign"
	"repro/internal/obs"
)

const (
	// Magic identifies a trial journal; Version the frame/header schema.
	// Version 2 added the analyzer-set binding (and analyzer extras on
	// the trial rows): version-1 journals predate per-trial analyzers
	// and are refused rather than silently merged without extras.
	// Version 3 added the analyzer-phase binding (before./delta. extras
	// namespaces): version-2 journals predate the phase axis, so their
	// rows cannot be validated against a phased spec and are refused
	// rather than silently merged with after-only extras.
	// Version 4 marks the steady-state fold: the balancer and Validate
	// test collisions at every image k·H, not only 0 and ±H, so
	// version-3 rows hold balanced numbers that this build would not
	// produce and are refused rather than merged with them.
	Magic   = "lbjournal"
	Version = 4

	// SyncEvery is the fsync cadence in records. A crash loses at most
	// this many journaled trials; they just re-run on resume.
	SyncEvery = 32
)

// Header is the first record of every journal. It pins the campaign
// identity (SpecHash plus the normalised spec itself) and the shard of
// the trial enumeration this file is allowed to contain.
type Header struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`

	// SpecHash is campaign.Spec.Hash() of Spec; resume and merge refuse
	// journals whose hash disagrees with the spec they are asked to
	// serve.
	SpecHash string         `json:"spec_hash"`
	Spec     *campaign.Spec `json:"spec"`

	// Analyzers is the spec's canonicalised analyzer set, duplicated
	// out of the spec so mixing rows produced under different analyzer
	// sets fails with a targeted message (the spec hash alone would
	// only say "different sweep").
	Analyzers []string `json:"analyzers"`

	// Phases is the spec's canonicalised analyzer-phase set, duplicated
	// for the same reason: resuming or merging across phase sets fails
	// naming the two sets, not just "different sweeps".
	Phases []string `json:"analyzer_phases"`

	// ShardIndex/ShardCount name this file's slice of the sharded run
	// (0/1 for an unsharded sweep); Lo/Hi is the half-open trial-index
	// range it covers, Total the full enumeration size.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	Lo         int `json:"lo"`
	Hi         int `json:"hi"`
	Total      int `json:"total"`
}

// ShardRange is the deterministic index-range partition of a
// total-trial enumeration: shard i of n (0-based) owns
// [⌊total·i/n⌋, ⌊total·(i+1)/n⌋). Ranges are contiguous, disjoint, and
// cover [0,total) exactly; sizes differ by at most one.
func ShardRange(total, i, n int) (lo, hi int) {
	return total * i / n, total * (i + 1) / n
}

// NewHeader builds the header for shard i of n over spec, normalising
// the spec in place.
func NewHeader(spec *campaign.Spec, i, n int) (Header, error) {
	if n < 1 || i < 0 || i >= n {
		return Header{}, fmt.Errorf("journal: shard %d/%d out of range", i+1, n)
	}
	hash, err := spec.Hash()
	if err != nil {
		return Header{}, err
	}
	trials, err := spec.Trials()
	if err != nil {
		return Header{}, err
	}
	lo, hi := ShardRange(len(trials), i, n)
	if lo == hi {
		return Header{}, fmt.Errorf("journal: shard %d/%d of a %d-trial sweep is empty — use at most %d shards",
			i+1, n, len(trials), len(trials))
	}
	return Header{
		Magic:      Magic,
		Version:    Version,
		SpecHash:   hash,
		Spec:       spec,
		Analyzers:  append([]string(nil), spec.Analyzers...),
		Phases:     append([]string(nil), spec.AnalyzerPhases...),
		ShardIndex: i,
		ShardCount: n,
		Lo:         lo,
		Hi:         hi,
		Total:      len(trials),
	}, nil
}

// check validates a header's invariants after decode.
func (h Header) check() error {
	if h.Magic != Magic {
		return fmt.Errorf("journal: bad magic %q (not a trial journal)", h.Magic)
	}
	if h.Version != Version {
		// Name what the missing schema feature is for the versions we
		// know: "unsupported" alone sends the operator hunting through
		// release notes.
		hint := ""
		switch h.Version {
		case 1:
			hint = " — version 1 predates per-trial analyzers; re-run the sweep with this build"
		case 2:
			hint = " — version 2 predates the analyzer phase axis (before/delta extras); re-run the sweep with this build"
		case 3:
			hint = " — version 3 predates the steady-state fold (its balanced schedules were checked at the 0/±H images only); re-run the sweep with this build"
		}
		return fmt.Errorf("journal: unsupported version %d (want %d)%s", h.Version, Version, hint)
	}
	if h.Spec == nil {
		return fmt.Errorf("journal: header carries no spec")
	}
	if h.Lo < 0 || h.Hi > h.Total || h.Lo >= h.Hi {
		return fmt.Errorf("journal: header shard range [%d,%d) invalid for %d trials", h.Lo, h.Hi, h.Total)
	}
	// The embedded spec must hash to the recorded hash — a tampered or
	// hand-edited spec is caught here even though its JSON still parses.
	hash, err := h.Spec.Hash()
	if err != nil {
		return err
	}
	if hash != h.SpecHash {
		return fmt.Errorf("journal: embedded spec hashes to %.12s…, header claims %.12s…", hash, h.SpecHash)
	}
	// Hash() normalised the embedded spec, so its analyzer and phase
	// lists are canonical; the header's duplicates must agree exactly.
	if !slices.Equal(h.Analyzers, h.Spec.Analyzers) {
		return fmt.Errorf("journal: header analyzer set %v does not match the embedded spec's %v", h.Analyzers, h.Spec.Analyzers)
	}
	if !slices.Equal(h.Phases, h.Spec.AnalyzerPhases) {
		return fmt.Errorf("journal: header phase set %v does not match the embedded spec's %v", h.Phases, h.Spec.AnalyzerPhases)
	}
	return nil
}

// compatible reports whether an on-disk header matches the header a
// resuming run would write: same campaign, same analyzer set, same
// phase set, same shard. The analyzer and phase comparisons come first
// — either change also changes the spec hash, and "resume with the
// same -analyzers/-analyzer-phases or start a fresh journal" is the
// actionable message.
func (h Header) compatible(want Header) error {
	if !slices.Equal(h.Analyzers, want.Analyzers) {
		return fmt.Errorf("journal: written with analyzers %s, this run requests %s — resume with the matching -analyzers or start a fresh journal",
			analyzerList(h.Analyzers), analyzerList(want.Analyzers))
	}
	if !slices.Equal(h.Phases, want.Phases) {
		return fmt.Errorf("journal: written with analyzer phases %s, this run requests %s — resume with the matching -analyzer-phases or start a fresh journal",
			analyzerList(h.Phases), analyzerList(want.Phases))
	}
	if h.SpecHash != want.SpecHash {
		return fmt.Errorf("journal: spec hash %.12s… does not match this sweep (%.12s…) — wrong spec or wrong journal", h.SpecHash, want.SpecHash)
	}
	if h.ShardIndex != want.ShardIndex || h.ShardCount != want.ShardCount || h.Lo != want.Lo || h.Hi != want.Hi || h.Total != want.Total {
		return fmt.Errorf("journal: shard %d/%d [%d,%d) of %d does not match requested shard %d/%d [%d,%d) of %d",
			h.ShardIndex+1, h.ShardCount, h.Lo, h.Hi, h.Total,
			want.ShardIndex+1, want.ShardCount, want.Lo, want.Hi, want.Total)
	}
	return nil
}

// analyzerList renders an analyzer set for error messages; the empty
// set prints as "none" rather than an empty bracket pair.
func analyzerList(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ",")
}

// Writer appends checksummed trial records to a journal file. Append is
// safe for concurrent use (the campaign engine's sink is called from
// every worker). Run is the journaled run itself.
type Writer struct {
	log *RecordLog
	hdr Header

	// resumed holds the rows Resume recovered: the trials Run replays
	// instead of running.
	resumed []campaign.TrialResult

	// Obs, when non-nil, receives journal telemetry: append and fsync
	// latencies (obs.StageJournalAppend / StageJournalFsync) and the
	// records/bytes/fsyncs counters. Set it before the first Append;
	// a nil recorder is free. The journal bytes are identical either
	// way — telemetry never touches the frame stream.
	Obs *obs.Recorder
}

// Create starts a fresh journal at path, writing and syncing the
// header. It refuses to overwrite an existing file — an old journal is
// either resumed or deliberately deleted, never clobbered — and holds
// an exclusive advisory lock on the file for the writer's lifetime.
func Create(path string, hdr Header) (*Writer, error) {
	payload, err := headerPayload(hdr)
	if err != nil {
		return nil, err
	}
	log, err := openRecordLog(path, os.O_CREATE|os.O_EXCL, payload, nil)
	if errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("journal: %s already exists — resume it or delete it first", path)
	}
	if err != nil {
		return nil, err
	}
	return &Writer{log: log, hdr: hdr}, nil
}

// headerPayload validates hdr and encodes it as a journal's first
// record.
func headerPayload(hdr Header) ([]byte, error) {
	if err := hdr.check(); err != nil {
		return nil, err
	}
	return json.Marshal(hdr)
}

// Append journals one completed trial and fsyncs every SyncEvery
// records.
func (w *Writer) Append(r campaign.TrialResult) error {
	if r.Index < w.hdr.Lo || r.Index >= w.hdr.Hi {
		return fmt.Errorf("journal: trial %d outside shard range [%d,%d)", r.Index, w.hdr.Lo, w.hdr.Hi)
	}
	t0 := w.Obs.Clock()
	payload, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := w.log.Append(payload, SyncEvery, w.Obs); err != nil {
		return fmt.Errorf("journal: appending trial %d: %w", r.Index, err)
	}
	w.Obs.Stamp(obs.StageJournalAppend, t0)
	return nil
}

// Close syncs and closes the journal, releasing writer exclusion.
func (w *Writer) Close() error { return w.log.Close(w.Obs) }

// Run is the journaled run of eng over spec, the one every journaling
// caller goes through. It replays the rows Resume recovered as eng.Done,
// restricts eng to the header's shard range, and appends every live
// trial to the journal before eng.Sink, if set, sees it; the sink is
// then called concurrently from the engine's workers. The journal is
// synced and closed on every return. A close error replaces
// campaign.ErrInterrupted, since a drained run is only resumable once
// its tail is on disk, but never hides any other run error.
func (w *Writer) Run(eng *campaign.Engine, spec *campaign.Spec) (*campaign.Result, error) {
	eng.Done, eng.Lo, eng.Hi = w.resumed, w.hdr.Lo, w.hdr.Hi
	sink := eng.Sink
	eng.Sink = func(r campaign.TrialResult) error {
		if err := w.Append(r); err != nil || sink == nil {
			return err
		}
		return sink(r)
	}
	res, err := eng.Run(spec)
	if cerr := w.Close(); cerr != nil && (err == nil || errors.Is(err, campaign.ErrInterrupted)) {
		return nil, cerr
	}
	return res, err
}

// Journal is the decoded content of one journal file.
type Journal struct {
	Header Header
	// Rows holds the journaled trials in file (completion) order.
	Rows []campaign.TrialResult
	// Torn is set when a partial final record was discarded; HeaderOK
	// is false when not even the header survived (a crash during
	// Create) — Header and Rows are then zero.
	Torn     bool
	HeaderOK bool
}

// Complete reports whether the journal covers its whole shard range.
func (j *Journal) Complete() bool {
	return j.HeaderOK && len(j.Rows) == j.Header.Hi-j.Header.Lo
}

// Read decodes a journal, verifying every frame. It recovers from a
// torn tail (the one failure a crash can produce) and fails loudly on
// everything else: a framing or checksum violation followed by more
// data, a duplicate trial index, or a row outside the header's shard
// range. Read takes no lock — merging or inspecting a journal while
// its writer is alive is safe (the worst case is seeing an incomplete
// shard, which the merge rejects loudly anyway).
func Read(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(path, data)
}

// DecodeBytes parses journal content already held in memory — the
// coordinator validates worker-fetched journals this way before
// trusting a byte of them — with exactly Read's semantics; name labels
// errors in place of a file path.
func DecodeBytes(name string, data []byte) (*Journal, error) {
	records, clean, err := ScanRecords(data)
	if err != nil {
		return nil, fmt.Errorf("journal: %s: %w", name, err)
	}
	j, err := decodeRecords(name, records)
	if err != nil {
		return nil, err
	}
	j.Torn = clean < len(data)
	return j, nil
}

// decodeRecords interprets a journal's verified record payloads: the
// header, then trial rows inside its shard range with no index twice.
// A payload that verified but does not decode is corruption — a torn
// write cannot produce a verified frame.
func decodeRecords(name string, records [][]byte) (*Journal, error) {
	j := &Journal{}
	if len(records) == 0 {
		return j, nil
	}
	if err := json.Unmarshal(records[0], &j.Header); err != nil {
		return nil, fmt.Errorf("journal: %s: decoding header: %w", name, err)
	}
	if err := j.Header.check(); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, name)
	}
	j.HeaderOK = true
	seen := map[int]bool{}
	for rec, payload := range records[1:] {
		var r campaign.TrialResult
		if err := json.Unmarshal(payload, &r); err != nil {
			return nil, fmt.Errorf("journal: %s: decoding record %d: %w", name, rec+1, err)
		}
		if r.Index < j.Header.Lo || r.Index >= j.Header.Hi {
			return nil, fmt.Errorf("journal: %s: record %d holds trial %d outside shard range [%d,%d)",
				name, rec+1, r.Index, j.Header.Lo, j.Header.Hi)
		}
		if seen[r.Index] {
			return nil, fmt.Errorf("journal: %s: trial %d journaled twice", name, r.Index)
		}
		seen[r.Index] = true
		j.Rows = append(j.Rows, r)
	}
	return j, nil
}

// Resume opens the journal at path for continuation of the run
// described by want: it validates the on-disk header against want,
// truncates any torn tail, and returns an append-positioned writer
// together with the recovered rows (the trials a resumed engine run
// must not redo). A missing file — or one whose header never made it
// to disk — starts fresh. A refused journal is left untouched.
//
// rec becomes the writer's Obs, and a torn tail the resume truncated —
// the single repair a crash can require — counts once on it as
// obs.CounterTornRepairs (the dropped trial simply re-runs).
//
// The file is exclusively locked before it is even read, and the lock
// is held for the writer's lifetime: resuming a journal whose original
// process is still alive (the classic believed-dead restart) fails
// loudly instead of letting two writers interleave rows and poison the
// file with duplicate trial indices.
func Resume(path string, want Header, rec *obs.Recorder) (*Writer, []campaign.TrialResult, error) {
	payload, err := headerPayload(want)
	if err != nil {
		return nil, nil, err
	}
	w := &Writer{hdr: want, Obs: rec}
	var repaired bool
	w.log, err = OpenRecordLog(path, payload, func(records [][]byte, torn bool) error {
		j, err := decodeRecords(path, records)
		if err != nil {
			return err
		}
		if err := j.Header.compatible(want); err != nil {
			return fmt.Errorf("%w (%s)", err, path)
		}
		w.hdr, w.resumed, repaired = j.Header, j.Rows, torn
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if repaired {
		rec.Add(obs.CounterTornRepairs, 1)
	}
	return w, w.resumed, nil
}

// Package service is the lbfarmd campaign daemon: sweeps as a
// long-lived service instead of one-shot CLI invocations. Clients
// submit campaign specs over the versioned wire API (internal/api),
// the daemon queues and executes them on the deterministic engine with
// journal-backed durability, streams progress over SSE, and serves
// finished artifacts from a content-addressed cache keyed by spec
// hash — determinism makes the cache exact: an identical re-submission
// returns the first run's bytes with zero trials re-executed.
package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/journal"
)

// Artifact kinds in the content-addressed cache. Kind names are the
// map keys of api.CampaignStatus.Artifacts and the file suffixes under
// /v1/artifacts/.
const (
	KindJSON    = "json"
	KindCSV     = "csv"
	KindRunInfo = "runinfo"
	// KindFleetInfo is the merged fleet telemetry document of a
	// fleet-executed campaign (absent on local runs).
	KindFleetInfo = "fleetinfo"
)

// artifactFile maps an artifact kind to its filename for hash.
func artifactFile(hash, kind string) (string, error) {
	switch kind {
	case KindJSON:
		return hash + ".json", nil
	case KindCSV:
		return hash + ".csv", nil
	case KindRunInfo:
		return hash + ".runinfo.json", nil
	case KindFleetInfo:
		return hash + ".fleetinfo.json", nil
	}
	return "", fmt.Errorf("service: unknown artifact kind %q", kind)
}

// Record is the durable per-campaign state the daemon persists on
// every transition. It is what survives a daemon crash: on restart,
// non-terminal records re-enter the queue and resume from their
// journals. The submitted spec rides along verbatim so the resume does
// not depend on the client re-sending it.
type Record struct {
	ID          string            `json:"id"`
	Name        string            `json:"name"`
	State       api.CampaignState `json:"state"`
	Error       string            `json:"error,omitempty"`
	SubmittedAt time.Time         `json:"submitted_at"`
	StartedAt   *time.Time        `json:"started_at,omitempty"`
	FinishedAt  *time.Time        `json:"finished_at,omitempty"`
	Spec        json.RawMessage   `json:"spec"`
}

// Store is the daemon's durable state: campaign records and the
// content-addressed artifact cache. The filesystem implementation
// below is the only one today; the interface is deliberately small and
// batch-oriented (PutArtifacts lands a campaign's whole artifact set,
// Records loads everything once at startup) so an S3/Postgres
// implementation stays honest — no per-byte seeks, no filesystem
// idioms. Trial journals are NOT behind this interface: they are
// node-local crash-recovery scratch (resume only ever happens on the
// node that wrote them), so they stay a plain directory in the
// daemon's config.
type Store interface {
	// PutRecord durably upserts one campaign record.
	PutRecord(rec Record) error
	// Records returns every stored record, in no particular order.
	Records() ([]Record, error)

	// PutArtifacts lands the complete artifact set for hash — all kinds
	// in one call, visible atomically: HasArtifacts never observes a
	// partial set.
	PutArtifacts(hash string, files map[string][]byte) error
	// GetArtifact returns one cached artifact, or os.ErrNotExist.
	GetArtifact(hash, kind string) ([]byte, error)
	// HasArtifacts reports whether the complete artifact set for hash
	// is cached.
	HasArtifacts(hash string) bool
	// ArtifactKinds returns the kinds of hash's cached set (nil when
	// not cached) — what lets a status report link exactly the
	// artifacts that exist, executor extras included.
	ArtifactKinds(hash string) []string
}

// FSStore is the filesystem Store: records under <dir>/campaigns, the
// artifact cache under <dir>/artifacts, with an in-memory index (which
// hashes hold complete artifact sets, the live record map) rebuilt at
// Open so the request path never stats the disk.
type FSStore struct {
	dir string

	mu      sync.Mutex
	records map[string]Record
	cached  map[string][]string // hash → kinds of a complete set
}

// OpenFSStore opens (creating if needed) the store rooted at dir and
// rebuilds the in-memory index from what is on disk.
func OpenFSStore(dir string) (*FSStore, error) {
	s := &FSStore{
		dir:     dir,
		records: map[string]Record{},
		cached:  map[string][]string{},
	}
	for _, sub := range []string{s.campaignDir(), s.artifactDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	ents, err := os.ReadDir(s.campaignDir())
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.campaignDir(), e.Name()))
		if err != nil {
			return nil, err
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("service: corrupt campaign record %s: %w", e.Name(), err)
		}
		s.records[rec.ID] = rec
	}
	// A hash is cached only when its complete marker set is present:
	// PutArtifacts writes the files first and the marker last, so a
	// crash mid-put leaves an incomplete set that is simply re-run.
	ents, err = os.ReadDir(s.artifactDir())
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if hash, ok := strings.CutSuffix(e.Name(), ".ok"); ok {
			kinds, err := s.verifySet(hash)
			if err != nil {
				return nil, err
			}
			if kinds != nil {
				s.cached[hash] = kinds
			}
		}
	}
	return s, nil
}

func (s *FSStore) campaignDir() string { return filepath.Join(s.dir, "campaigns") }
func (s *FSStore) artifactDir() string { return filepath.Join(s.dir, "artifacts") }

// markerTag heads every .ok marker: the journal schema version of the
// build that computed the set. A set written under another version holds
// numbers this build would not produce (journal.Version says why), so
// the index leaves it out and a re-submission recomputes it.
var markerTag = fmt.Sprintf("v%d", journal.Version)

// verifySet confirms every kind named by the .ok marker exists and
// returns the kind list, or nil for a set of another schema version.
func (s *FSStore) verifySet(hash string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(s.artifactDir(), hash+".ok"))
	if err != nil {
		return nil, err
	}
	kinds := strings.Fields(string(data))
	if len(kinds) == 0 || kinds[0] != markerTag {
		return nil, nil
	}
	kinds = kinds[1:]
	for _, kind := range kinds {
		name, err := artifactFile(hash, kind)
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(filepath.Join(s.artifactDir(), name)); err != nil {
			return nil, fmt.Errorf("service: artifact set %s marked complete but %s is missing", hash, name)
		}
	}
	return kinds, nil
}

// PutRecord implements Store: atomic write-then-rename, then index.
func (s *FSStore) PutRecord(rec Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.campaignDir(), rec.ID+".json")
	if err := journal.WriteFileAtomic(path, data); err != nil {
		return err
	}
	s.mu.Lock()
	s.records[rec.ID] = rec
	s.mu.Unlock()
	return nil
}

// Records implements Store.
func (s *FSStore) Records() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.records))
	for _, rec := range s.records {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SubmittedAt.Before(out[j].SubmittedAt) })
	return out, nil
}

// PutArtifacts implements Store: every file lands via write-then-
// rename, and the .ok marker — the visibility bit the index trusts —
// goes last, after an fsync barrier on the files, so a crash at any
// point leaves either a complete, visible set or an invisible partial
// one.
func (s *FSStore) PutArtifacts(hash string, files map[string][]byte) error {
	if len(files) == 0 {
		return fmt.Errorf("service: empty artifact set for %s", hash)
	}
	kinds := make([]string, 0, len(files))
	for kind, data := range files {
		name, err := artifactFile(hash, kind)
		if err != nil {
			return err
		}
		if err := journal.WriteFileAtomic(filepath.Join(s.artifactDir(), name), data); err != nil {
			return err
		}
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	marker := markerTag + " " + strings.Join(kinds, " ") + "\n"
	if err := journal.WriteFileAtomic(filepath.Join(s.artifactDir(), hash+".ok"), []byte(marker)); err != nil {
		return err
	}
	s.mu.Lock()
	s.cached[hash] = kinds
	s.mu.Unlock()
	return nil
}

// GetArtifact implements Store.
func (s *FSStore) GetArtifact(hash, kind string) ([]byte, error) {
	s.mu.Lock()
	_, ok := s.cached[hash]
	s.mu.Unlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	name, err := artifactFile(hash, kind)
	if err != nil {
		return nil, os.ErrNotExist
	}
	return os.ReadFile(filepath.Join(s.artifactDir(), name))
}

// HasArtifacts implements Store.
func (s *FSStore) HasArtifacts(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.cached[hash]
	return ok
}

// ArtifactKinds implements Store.
func (s *FSStore) ArtifactKinds(hash string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	kinds, ok := s.cached[hash]
	if !ok {
		return nil
	}
	out := make([]string, len(kinds))
	copy(out, kinds)
	return out
}

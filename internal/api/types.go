package api

import (
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// ---------------------------------------------------------------------
// Worker dialect: the coordinator ↔ worker job API (served by
// lbfarm -worker, driven by lbfarmd's fleet dispatch).

// Job is one dispatched unit of work: run shard Range.Index of
// Range.Count of Spec, journal it, and hold the journal for collection.
// The ID is stable across re-dispatches of the same range (it names the
// range, not the attempt), so a worker that already holds a partial
// journal for it resumes instead of restarting.
type Job struct {
	ID    string         `json:"id"`
	Spec  *campaign.Spec `json:"spec"`
	Range Range          `json:"range"`
	// Trace is the range-stable trace ID and Span the attempt-specific
	// span ID minted by the coordinator at dispatch; the worker echoes
	// them into its runinfo sidecar and /debug/vars so fleet-side
	// decisions and worker-side telemetry join on the same IDs.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// Range names one shard of a campaign's trial enumeration: index-range
// [Lo,Hi) as shard Index of Count (the journal.ShardRange geometry).
type Range struct {
	Index int `json:"index"`
	Count int `json:"count"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
}

// JobState is a worker's view of one job.
type JobState string

const (
	// JobIdle means the worker holds no such job (never dispatched, or
	// lost to a worker restart).
	JobIdle JobState = "idle"
	// JobRunning means the job's engine run is in flight.
	JobRunning JobState = "running"
	// JobDone means the shard journal is complete and collectable.
	JobDone JobState = "done"
	// JobFailed means the run ended without a complete journal; Err
	// carries the reason (including "canceled" for a drained job).
	JobFailed JobState = "failed"
)

// WorkerStatus is a worker's self-report — the status-poll response.
// Done counts journaled trials of the current job (replayed rows
// included), Total the job's trial count. Obs is the worker's telemetry
// snapshot (absent when it runs without telemetry), taken after the job
// state was read, so a done reply's snapshot covers every trial of that
// job.
type WorkerStatus struct {
	JobID string        `json:"job_id"`
	State JobState      `json:"state"`
	Done  int           `json:"done"`
	Total int           `json:"total"`
	Err   string        `json:"err,omitempty"`
	Obs   *obs.Snapshot `json:"obs,omitempty"`
}

// Registration is the payload a worker pushes to the coordinator
// (POST /v1/register) at start and every interval after.
type Registration struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// ---------------------------------------------------------------------
// Coordinator status dialect: the control-plane snapshot a fleet
// campaign's coordinator publishes, embedded in CampaignStatus.Fleet.
// internal/coord aliases these types under its domain names (Stats,
// WorkerView, …).

// CoordStats counts a coordinator's fault-handling events.
type CoordStats struct {
	Registered          int `json:"workers_registered"`
	DeadWorkers         int `json:"workers_dead"`
	Dispatches          int `json:"dispatches"`
	Requeues            int `json:"requeues"`
	Speculations        int `json:"speculations"`
	DuplicatesDiscarded int `json:"duplicates_discarded"`
	Journaled           int `json:"ranges_journaled"`
	RecoveredJournals   int `json:"recovered_journals"`
}

// CoordWorker is the snapshot of one registered worker.
type CoordWorker struct {
	ID           string `json:"id"`
	Job          string `json:"job,omitempty"`
	State        string `json:"state,omitempty"`
	Done         int    `json:"done"`
	Total        int    `json:"total"`
	LastSeenMS   int64  `json:"last_seen_ms"` // age of last contact
	RangeLeased  int    `json:"range_leased"` // -1 when idle
	Unresponsive bool   `json:"unresponsive,omitempty"`
}

// CoordLease is the snapshot of one shard range's lease.
type CoordLease struct {
	Range      Range    `json:"range"`
	State      string   `json:"state"`
	Trace      string   `json:"trace,omitempty"`
	Workers    []string `json:"workers,omitempty"`
	Dispatches int      `json:"dispatches"`
	Failures   int      `json:"failures"`
	LastErr    string   `json:"last_err,omitempty"`
	Path       string   `json:"path,omitempty"`
}

// CoordStatus is a coordinator's full observable state: the lease
// table, the worker pool, and the fault counters.
type CoordStatus struct {
	Name     string        `json:"name"`
	SpecHash string        `json:"spec_hash"`
	Trials   int           `json:"trials"`
	Splits   int           `json:"splits"`
	Leases   []CoordLease  `json:"leases"`
	Workers  []CoordWorker `json:"workers"`
	Stats    CoordStats    `json:"stats"`
}

// ---------------------------------------------------------------------
// Campaign service dialect: the lbfarmd submission API. A submission
// body is a plain campaign.Spec; these are the response and event
// shapes.

// CampaignState is the service-side lifecycle of one submitted
// campaign.
type CampaignState string

const (
	// CampaignQueued: admitted to the bounded FIFO, not yet running.
	CampaignQueued CampaignState = "queued"
	// CampaignRunning: executing on the engine, journaling as it goes.
	CampaignRunning CampaignState = "running"
	// CampaignDone: artifacts are in the content-addressed cache.
	CampaignDone CampaignState = "done"
	// CampaignFailed: the run ended in an error (Error carries it);
	// re-submitting the same spec re-queues it.
	CampaignFailed CampaignState = "failed"
)

// Terminal reports whether the state is final.
func (s CampaignState) Terminal() bool {
	return s == CampaignDone || s == CampaignFailed
}

// CampaignStatus is the service's report on one campaign — the
// response of POST /v1/campaigns and GET /v1/campaigns/{id}, and the
// payload of "status" events on the SSE stream. ID is the campaign's
// spec hash: identical submissions share one identity, which is what
// makes the artifact cache exact.
type CampaignStatus struct {
	ID    string        `json:"id"`
	Name  string        `json:"name"`
	State CampaignState `json:"state"`
	// Cached is set on a submission response served entirely from the
	// artifact cache: no trial ran, the artifacts below are the first
	// run's bytes.
	Cached bool `json:"cached,omitempty"`
	// Done/Accepted/Total are live trial counters (journal-replayed
	// trials included in Done).
	Done     int `json:"done"`
	Accepted int `json:"accepted"`
	Total    int `json:"total"`
	// Error carries the failure reason of a failed campaign.
	Error string `json:"error,omitempty"`
	// Artifacts maps artifact kind ("json", "csv", "runinfo", and
	// "fleetinfo" for fleet-executed campaigns) to the service path it
	// is served under, once the campaign is done.
	Artifacts map[string]string `json:"artifacts,omitempty"`

	// Fleet is the embedded coordinator's live control-plane snapshot,
	// present only while a campaign is running on the fleet executor.
	Fleet *CoordStatus `json:"fleet,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// CampaignList is the GET /v1/campaigns response.
type CampaignList struct {
	Campaigns []CampaignStatus `json:"campaigns"`
}

// Event is one record of a campaign's SSE stream
// (GET /v1/campaigns/{id}/events). Exactly one of the payload fields is
// set, matching Type; Seq increases by one per event within a stream,
// so a consumer can detect drops (slow subscribers lose trial events
// first — progress counters are cumulative, so nothing is unrecoverable).
type Event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // "status" | "progress" | "trial"

	Status   *CampaignStatus `json:"status,omitempty"`
	Progress *ProgressEvent  `json:"progress,omitempty"`
	Trial    *TrialEvent     `json:"trial,omitempty"`
}

// Event types on the SSE stream.
const (
	EventStatus   = "status"
	EventProgress = "progress"
	EventTrial    = "trial"
)

// ProgressEvent is the periodic progress report: cumulative counters
// plus the human-readable line internal/progress renders for the CLIs.
type ProgressEvent struct {
	Done     int    `json:"done"`
	Accepted int    `json:"accepted"`
	Total    int    `json:"total"`
	Line     string `json:"line"`
}

// TrialEvent streams one completed trial as it folds: the enumeration
// index, its grid cell, and the outcome ("ok" or the rejecting stage).
type TrialEvent struct {
	Index   int    `json:"index"`
	Cell    string `json:"cell"`
	Outcome string `json:"outcome"`
}

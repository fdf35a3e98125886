// Package coord is the fault-tolerant control plane that turns the
// manual multi-host workflow (`lbfarm -shard i/n` per host, `lbmerge`
// by hand) into a coordinated campaign that survives real fleets.
//
// A coordinator splits one campaign spec into shard ranges — the same
// deterministic journal.ShardRange partition the CLI sharding uses —
// and dispatches them to registered workers over HTTP. Each range moves
// through a lease state machine:
//
//	pending → leased → journaled → merged
//
// pending ranges wait for an idle worker (or for their retry backoff to
// expire); leased ranges are running on one worker — or several, when
// the straggler detector speculatively re-issues a slow range;
// journaled ranges have had their complete, validated shard journal
// fetched to the coordinator's journal directory; merged is the final
// fold through journal.Merge / campaign.Fold, byte-identical to an
// uninterrupted single-host run.
//
// Robustness model, in order of line of defence:
//
//   - Liveness: the scheduler polls every worker's status each tick,
//     and that poll is the coordinator's one view of a worker; a worker
//     that has not answered it for the liveness timeout is declared
//     dead, its leases are re-queued, and the campaign finishes on the
//     survivors. A healed worker rejoins through its periodic
//     re-registration. Re-execution is safe because trials are
//     deterministic and shard journals resume.
//   - Retry with backoff: every failed range attempt (dispatch error,
//     worker death, failed or lost job, invalid fetched journal)
//     re-queues the range behind an exponential backoff with jitter,
//     and the campaign fails loudly — naming the range and its last
//     error — once a range exhausts its attempt budget.
//   - Straggler re-issue: the detector projects each leased range's
//     completion from its polled progress, flags a range whose polled
//     progress stopped rising as stalled, reads the obs snapshot the
//     last poll carried (stage shares say whether it is compute- or
//     fsync-bound), and speculatively re-issues the slowest tail ranges
//     to idle workers through the ordinary dispatch path.
//     Determinism makes duplicates free: the first complete journal
//     wins and the loser is discarded.
//   - Durability: fetched shard journals are the coordinator's lease
//     table. A restarted coordinator re-reads them, seats the complete
//     ones as journaled, and only re-issues what is actually missing.
package coord

import (
	"context"
	"errors"

	"repro/internal/api"
)

// The wire types of the job dialect — Job, Range, JobState,
// WorkerStatus, Registration — live in internal/api (the
// one versioned dialect every server speaks); they are aliased here so
// the coordinator's domain code and its tests keep their natural names.
type (
	// Job is one dispatched unit of work; see api.Job.
	Job = api.Job
	// JobState is a worker's view of one job; see api.JobState.
	JobState = api.JobState
	// WorkerStatus is a worker's self-report; see api.WorkerStatus.
	WorkerStatus = api.WorkerStatus
)

// Job lifecycle states, re-exported from the wire package.
const (
	JobIdle    = api.JobIdle
	JobRunning = api.JobRunning
	JobDone    = api.JobDone
	JobFailed  = api.JobFailed
)

// ErrUnknownJob is returned by Worker.Status when the worker does not
// know the asked-about job — the signature of a worker that restarted
// and lost its assignment; the coordinator re-queues the range.
var ErrUnknownJob = errors.New("coord: unknown job")

// Worker is the coordinator's handle on one registered worker. The
// production implementation is the HTTP Client; the chaos tests inject
// fault-wrapped handles through the same interface.
type Worker interface {
	// ID is the worker's stable registration identity.
	ID() string
	// Start launches the job asynchronously. Starting a job the worker
	// already runs or holds done is idempotent, never an error.
	Start(ctx context.Context, job Job) error
	// Status reports on jobID ("" = whatever the worker is doing) and
	// is the coordinator's one channel to the worker: the liveness
	// probe, the progress the straggler rules read, and the worker's
	// telemetry snapshot (WorkerStatus.Obs, nil without telemetry).
	// ErrUnknownJob means the worker has no memory of that job.
	Status(ctx context.Context, jobID string) (WorkerStatus, error)
	// Cancel drains jobID: the engine stops claiming trials, the
	// journal is synced and closed. Best-effort; canceling an unknown
	// or finished job is not an error.
	Cancel(ctx context.Context, jobID string) error
	// Journal fetches the complete shard journal of a done job.
	Journal(ctx context.Context, jobID string) ([]byte, error)
}

package coord

import (
	"math/rand/v2"
	"time"

	"repro/internal/api"
)

// State is a range's position in the lease lifecycle.
type State int

const (
	// StatePending: waiting for an idle worker (or for backoff).
	StatePending State = iota
	// StateLeased: running on at least one worker.
	StateLeased
	// StateJournaled: a complete, validated shard journal is on the
	// coordinator's disk.
	StateJournaled
	// StateMerged: folded into the final artifact.
	StateMerged
)

var stateNames = [...]string{"pending", "leased", "journaled", "merged"}

// String returns the state's lifecycle name.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "unknown"
	}
	return stateNames[s]
}

// Range is one dispatchable slice of the campaign: shard Index of Count
// under journal.ShardRange, covering trials [Lo,Hi). The wire type
// lives in internal/api (it travels inside api.Job).
type Range = api.Range

// Backoff is the retry policy for failed range attempts: exponential
// from Base, capped at Max, with ±Jitter fraction of symmetric random
// noise so a fleet of re-queued ranges does not stampede one surviving
// worker in lockstep.
type Backoff struct {
	Base   time.Duration `json:"base"`
	Max    time.Duration `json:"max"`
	Jitter float64       `json:"jitter"`
}

// Delay returns the wait before retry number `failures` (1-based: the
// delay after the first failure is Base). rnd supplies the jitter draw
// in [0,1); nil disables jitter, which is what the deterministic tests
// pass.
func (b Backoff) Delay(failures int, rnd func() float64) time.Duration {
	if b.Base <= 0 || failures < 1 {
		return 0
	}
	d := b.Base
	for i := 1; i < failures; i++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 && rnd != nil {
		d += time.Duration((rnd()*2 - 1) * b.Jitter * float64(d))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// jitterDraw is the default jitter source.
func jitterDraw() float64 { return rand.Float64() }

// lease is one range's scheduling state. All fields are guarded by the
// coordinator's mutex.
type lease struct {
	rng   Range
	state State

	// trace is the range-stable trace ID (traceID), minted once at
	// construction and echoed on every event, dispatch, and sidecar.
	trace string

	// workers maps the IDs currently running this range (primary plus
	// any speculative twin) to the dispatched job ID. Only a range with
	// a single tenant is a speculation candidate.
	workers map[string]string

	// dispatches counts every Start (speculation included); failures
	// counts failed attempts and drives the backoff; notBefore gates
	// re-dispatch; lastErr names the most recent failure for the
	// exhausted-attempts fatal.
	dispatches int
	failures   int
	notBefore  time.Time
	lastErr    string

	// started is when the current tenancy began (first worker attached
	// after the last requeue) — the straggler projection baseline.
	started time.Time

	// path is the shard journal's location once journaled; dur the
	// tenancy's wall-clock duration (the straggler baseline sample).
	path string
	dur  time.Duration
}

// LeaseView is the exported snapshot of one lease for status surfaces
// and tests (wire type api.CoordLease).
type LeaseView = api.CoordLease

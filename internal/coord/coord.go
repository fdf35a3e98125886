package coord

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/obs"
)

// Config parameterises one fleet campaign run through a Coordinator.
// Spec and JournalDir are required; a zero Options runs on
// DefaultOptions.
type Config struct {
	Options

	// Spec is the campaign to run; it is normalised in place.
	Spec *campaign.Spec

	// JournalDir receives the fetched shard journals and the event log
	// <JournalDir>/<name>.events.jsonl — the campaign's durable state,
	// and the lease table a later coordinator over the same directory
	// recovers from. Per-campaign directories keep campaigns apart.
	JournalDir string

	// Registry, when non-nil, feeds the coordinator its worker pool and
	// sizes auto splits: New attaches it, Close detaches.
	Registry *Registry

	// OnShard, when non-nil, receives every shard's validated trial rows
	// the moment the shard becomes durable: once per recovered journal
	// during New (recovered=true) and once per landed journal during Run
	// (recovered=false). Calls are serialised — recovery runs before New
	// returns and landings happen on the scheduler goroutine — so an
	// embedding campaign service can fan rows into live counters and
	// event streams without extra locking. Rows arrive in shard order
	// within a call but shards land in completion order.
	OnShard func(rng Range, rows []campaign.TrialResult, recovered bool)

	// Logf receives the coordinator's log (nil = silent).
	Logf func(format string, args ...any)
}

// Stats counts the control plane's fault-handling events; the chaos
// tests assert on them and the status surfaces publish them. The wire
// type lives in internal/api (the campaign service embeds it in
// CampaignStatus.Fleet).
type Stats = api.CoordStats

// WorkerView is the exported snapshot of one registered worker (wire
// type api.CoordWorker).
type WorkerView = api.CoordWorker

// StatusSnapshot is the coordinator's full observable state, embedded
// in a running fleet campaign's status report (wire type
// api.CoordStatus).
type StatusSnapshot = api.CoordStatus

// workerState is the coordinator's book on one registered worker.
type workerState struct {
	w        Worker
	lastSeen time.Time // last answered status poll
	status   WorkerStatus
	lease    int // index into leases, -1 when idle

	// progressAt is when the polled Done of the leased job last rose
	// (or the lease began): the stall rule's clock.
	progressAt time.Time

	// snap is the last telemetry snapshot a status poll carried (nil
	// until one does): at most one Poll tick old while the worker
	// answers. The fleet merge, the fleetinfo sidecar and the straggler
	// diagnosis all read it.
	snap *obs.Snapshot
}

// Coordinator is one fleet campaign's control plane: it owns the lease
// table and drives the campaign to a merged result. Lifecycle: New
// (recovers the lease table, attaches the registry) → workers flow in
// via AddWorker → Run → FleetInfo → Close. A Coordinator over a
// previously interrupted JournalDir resumes instead of re-running.
type Coordinator struct {
	cfg      Config
	specHash string
	total    int
	start    time.Time // the event log's monotonic time base
	elog     *EventLog
	unattach func()
	closed   sync.Once

	mu      sync.Mutex
	leases  []*lease
	workers map[string]*workerState
	stats   Stats
	fatal   error

	// gone keeps the stubs of buried workers for the fleetinfo sidecar
	// (their telemetry is deliberately dropped: the merged snapshot sums
	// survivors only).
	gone []obs.FleetWorker
}

// New validates cfg, resolves its Options (auto-sizing Splits against
// the registry pool), opens the event log, cuts the spec into ranges,
// recovers the lease table from any shard journals already in
// JournalDir, and attaches the registry. The caller must Close the
// coordinator when done with it.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("coord: no spec")
	}
	if err := cfg.Spec.Normalize(); err != nil {
		return nil, err
	}
	hash, err := cfg.Spec.Hash()
	if err != nil {
		return nil, err
	}
	trials, err := cfg.Spec.Trials()
	if err != nil {
		return nil, err
	}
	if cfg.JournalDir == "" {
		return nil, fmt.Errorf("coord: no journal directory")
	}
	pool := 0
	if cfg.Registry != nil {
		pool = cfg.Registry.Size()
	}
	cfg.Options = cfg.Options.resolve()
	cfg.Splits = AutoSplits(cfg.Splits, pool, len(trials))
	if cfg.Splits < 1 {
		return nil, fmt.Errorf("coord: splits %d < 1", cfg.Splits)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
		return nil, err
	}

	c := &Coordinator{cfg: cfg, specHash: hash, total: len(trials), start: time.Now(), workers: map[string]*workerState{}}
	// The event log lives with the shard journals: both are durable
	// fault-tolerance records, and both survive an interrupted run for
	// the next coordinator over the same directory to extend.
	c.elog, err = OpenEventLog(filepath.Join(cfg.JournalDir, cfg.Spec.Name+EventLogSuffix), cfg.Spec.Name, hash, cfg.Splits)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Splits; i++ {
		lo, hi := journal.ShardRange(len(trials), i, cfg.Splits)
		rng := Range{Index: i, Count: cfg.Splits, Lo: lo, Hi: hi}
		c.leases = append(c.leases, &lease{
			rng:     rng,
			trace:   traceID(hash, rng),
			workers: map[string]string{},
		})
	}
	if err := c.recover(); err != nil {
		c.Close()
		return nil, err
	}
	if cfg.Registry != nil {
		c.unattach = cfg.Registry.Attach(c)
	}
	return c, nil
}

// Close detaches the coordinator from its registry and closes the
// event log. Idempotent; safe on a half-built coordinator.
func (c *Coordinator) Close() error {
	var err error
	c.closed.Do(func() {
		if c.unattach != nil {
			c.unattach()
		}
		err = c.elog.Close()
	})
	return err
}

// Options returns the resolved knob set (Splits after auto-sizing).
func (c *Coordinator) Options() Options { return c.cfg.Options }

// event stamps the monotonic time base on ev and appends it to the
// event log. Callers fill
// every other field; range-scoped callers should use rangeEvent.
func (c *Coordinator) event(ev Event) {
	ev.MonoNS = int64(time.Since(c.start))
	c.elog.Append(ev)
}

// rangeEvent pre-fills the range-scoped fields (range, job, trace,
// span, attempt, resulting lease state) of an event about lease l.
// Call under c.mu — it reads lease state.
func (c *Coordinator) rangeEvent(typ EventType, l *lease) Event {
	rng := l.rng
	return Event{
		Type:    typ,
		Range:   &rng,
		Job:     c.jobID(l.rng),
		Trace:   l.trace,
		Span:    spanID(l.trace, l.dispatches),
		Attempt: l.dispatches,
		State:   l.state.String(),
	}
}

// shardPath is the on-disk name of one range's journal, matching the
// `lbfarm -shard` convention so the files remain lbmerge-compatible.
func (c *Coordinator) shardPath(r Range) string {
	return filepath.Join(c.cfg.JournalDir, fmt.Sprintf("%s.shard%dof%d.jsonl", c.cfg.Spec.Name, r.Index+1, r.Count))
}

// jobID names the dispatchable job for a range. It is attempt-stable on
// purpose: a re-issue to a worker holding a partial journal for the
// same job resumes it instead of starting over.
func (c *Coordinator) jobID(r Range) string {
	return fmt.Sprintf("%.12s-shard%dof%d", c.specHash, r.Index+1, r.Count)
}

// recover seats already-fetched shard journals as journaled leases — a
// restarted coordinator resumes exactly where the files say it was. Any
// journal that does not verify against this campaign is a hard error:
// silently re-running it would mask a corrupted or foreign file.
func (c *Coordinator) recover() error {
	for _, l := range c.leases {
		path := c.shardPath(l.rng)
		if _, err := os.Stat(path); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		j, err := journal.Read(path)
		if err != nil {
			return fmt.Errorf("coord: recovering lease table: %w — delete the file to re-run its range", err)
		}
		if err := c.verifyShard(j, l.rng, path); err != nil {
			return fmt.Errorf("%w — delete the file to re-run its range", err)
		}
		l.state = StateJournaled
		l.path = path
		c.stats.Journaled++
		c.stats.RecoveredJournals++
		c.event(c.rangeEvent(EvShardRecovered, l))
		c.cfg.Logf("recovered shard %d/%d from %s", l.rng.Index+1, l.rng.Count, path)
		if c.cfg.OnShard != nil {
			c.cfg.OnShard(l.rng, j.Rows, true)
		}
	}
	return nil
}

// verifyShard checks a decoded journal is the complete, correct journal
// for one of this campaign's ranges.
func (c *Coordinator) verifyShard(j *journal.Journal, r Range, name string) error {
	if !j.HeaderOK {
		return fmt.Errorf("coord: %s has no intact header", name)
	}
	h := j.Header
	if h.SpecHash != c.specHash {
		return fmt.Errorf("coord: %s carries spec %.12s…, campaign is %.12s…", name, h.SpecHash, c.specHash)
	}
	if h.ShardIndex != r.Index || h.ShardCount != r.Count || h.Lo != r.Lo || h.Hi != r.Hi || h.Total != c.total {
		return fmt.Errorf("coord: %s covers shard %d/%d [%d,%d), expected %d/%d [%d,%d)",
			name, h.ShardIndex+1, h.ShardCount, h.Lo, h.Hi, r.Index+1, r.Count, r.Lo, r.Hi)
	}
	if !j.Complete() {
		return fmt.Errorf("coord: %s covers only %d of %d trials", name, len(j.Rows), r.Hi-r.Lo)
	}
	return nil
}

// AddWorker registers a worker handle. A re-registration under a known
// ID replaces the handle — the worker restarted or moved — and any
// lease the old incarnation held is re-queued by the next status poll,
// which will find the job gone.
func (c *Coordinator) AddWorker(w Worker) { c.join(w, true) }

// join adds w to the pool. A worker the pool already holds keeps its
// handle, unless it moved: then w replaces it.
func (c *Coordinator) join(w Worker, moved bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := w.ID()
	if prev, ok := c.workers[id]; ok {
		if moved {
			prev.w = w
			prev.lastSeen = time.Now()
			c.event(Event{Type: EvReRegistered, Worker: id})
			c.cfg.Logf("worker %s re-registered", id)
		}
		return
	}
	c.workers[id] = &workerState{w: w, lastSeen: time.Now(), lease: -1}
	c.stats.Registered++
	c.event(Event{Type: EvRegistered, Worker: id})
	c.cfg.Logf("worker %s registered (%d in pool)", id, len(c.workers))
}

// Workers returns the live pool size.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Stats returns a copy of the fault-handling counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Status snapshots the full control-plane state.
func (c *Coordinator) Status() StatusSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	s := StatusSnapshot{
		Name:     c.cfg.Spec.Name,
		SpecHash: c.specHash,
		Trials:   c.total,
		Splits:   c.cfg.Splits,
		Stats:    c.stats,
	}
	for _, l := range c.leases {
		ids := make([]string, 0, len(l.workers))
		for id := range l.workers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		s.Leases = append(s.Leases, LeaseView{
			Range:      l.rng,
			State:      l.state.String(),
			Trace:      l.trace,
			Workers:    ids,
			Dispatches: l.dispatches,
			Failures:   l.failures,
			LastErr:    l.lastErr,
			Path:       l.path,
		})
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ws := c.workers[id]
		s.Workers = append(s.Workers, WorkerView{
			ID:           id,
			Job:          ws.status.JobID,
			State:        string(ws.status.State),
			Done:         ws.status.Done,
			Total:        ws.status.Total,
			LastSeenMS:   now.Sub(ws.lastSeen).Milliseconds(),
			RangeLeased:  ws.lease,
			Unresponsive: now.Sub(ws.lastSeen) > c.cfg.Liveness/2,
		})
	}
	return s
}

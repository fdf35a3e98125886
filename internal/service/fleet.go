package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/obs"
)

// FleetExecutor runs campaigns on a registered worker fleet: each
// Execute embeds one coord.Coordinator over a per-campaign journal
// directory, dispatches shard ranges to the workers pooled in Registry,
// and folds the fetched shard journals into the same byte-identical
// artifacts the local engine produces. Workers register once against
// the daemon (lbfarm -worker -coord http://daemon) and serve every
// campaign it admits.
//
// Durability matches the local path shape-for-shape: landed shard
// journals are the resume state (a drained campaign re-queues and its
// next coordinator recovers them), and the per-campaign event log plus
// the end-of-run fleetinfo artifact carry the fault-tolerance story
// into the observability surface.
type FleetExecutor struct {
	// Registry is the daemon-lifetime worker pool (required).
	Registry *coord.Registry
	// Options carries the coordinator knobs (zero value:
	// coord.DefaultOptions).
	Options coord.Options
	// Dir is the root for per-campaign coordinator state: campaign id →
	// <Dir>/<id>.fleet/ holding shard journals and the event log
	// <name>.events.jsonl (required).
	Dir string
	// Logf receives the embedded coordinators' logs (nil = silent).
	Logf func(format string, args ...any)

	mu        sync.Mutex
	coords    map[string]*coord.Coordinator
	fleetinfo map[string][]byte
}

// NewFleetExecutor builds a FleetExecutor over an existing registry.
func NewFleetExecutor(reg *coord.Registry, opts coord.Options, dir string, logf func(format string, args ...any)) *FleetExecutor {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &FleetExecutor{
		Registry:  reg,
		Options:   opts,
		Dir:       dir,
		Logf:      logf,
		coords:    map[string]*coord.Coordinator{},
		fleetinfo: map[string][]byte{},
	}
}

// campaignDir is campaign id's coordinator state directory.
func (e *FleetExecutor) campaignDir(id string) string {
	return filepath.Join(e.Dir, id+".fleet")
}

// Execute implements Executor: one coordinator per campaign,
// recovered shards reported through OnResume, landed shards fanned into
// Sink, a closed Stop drained into campaign.ErrInterrupted.
func (e *FleetExecutor) Execute(req ExecRequest) (*campaign.Result, error) {
	var resumed []campaign.TrialResult
	c, err := coord.New(coord.Config{
		Options:    e.Options,
		Spec:       req.Spec,
		JournalDir: e.campaignDir(req.ID),
		Registry:   e.Registry,
		OnShard: func(rng coord.Range, rows []campaign.TrialResult, recovered bool) {
			if recovered {
				// New is still running: accumulate for OnResume.
				resumed = append(resumed, rows...)
				return
			}
			for _, r := range rows {
				// Sink only feeds counters and streams here — the shard
				// journal already made the rows durable.
				_ = req.Sink(r)
			}
		},
		Logf: req.Logf,
	})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.coords[req.ID] = c
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.coords, req.ID)
		e.mu.Unlock()
		c.Close()
	}()
	req.OnResume(resumed)

	// Bridge the daemon's drain channel into the coordinator's context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-req.Stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	res, runErr := c.Run(ctx)
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) {
			select {
			case <-req.Stop:
				// Drained: landed shards stay under the campaign dir for
				// the next coordinator to recover — the fleet twin of the
				// local journal resume.
				return nil, campaign.ErrInterrupted
			default:
			}
		}
		return nil, runErr
	}

	// The fleetinfo sidecar, built from the telemetry the polls carried,
	// becomes an extra artifact next to json/csv/runinfo.
	if data, err := c.FleetInfo().JSON(); err == nil {
		e.mu.Lock()
		e.fleetinfo[req.ID] = data
		e.mu.Unlock()
	} else {
		req.Logf("campaign %s: rendering fleetinfo: %v", req.ID, err)
	}
	return res, nil
}

// Cleanup implements Executor: the landed shard journals are scratch
// once the artifacts are in the store. The event log deliberately stays
// — it is the campaign's fault-tolerance audit record, and it is what
// the chaos tests (and operators) read after the fact.
func (e *FleetExecutor) Cleanup(id string) error {
	e.mu.Lock()
	delete(e.fleetinfo, id)
	e.mu.Unlock()
	shards, err := filepath.Glob(filepath.Join(e.campaignDir(id), "*.shard*.jsonl"))
	if err != nil {
		return err
	}
	for _, p := range shards {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// ExtraArtifacts hands the daemon the fleetinfo document of a campaign
// that just finished, to land in the store alongside json/csv/runinfo.
func (e *FleetExecutor) ExtraArtifacts(id string) map[string][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	data, ok := e.fleetinfo[id]
	if !ok {
		return nil
	}
	return map[string][]byte{KindFleetInfo: data}
}

// FleetStatus snapshots the embedded coordinator of a running campaign
// (nil when id is not executing on the fleet right now) — the
// CampaignStatus.Fleet block.
func (e *FleetExecutor) FleetStatus(id string) *api.CoordStatus {
	e.mu.Lock()
	c := e.coords[id]
	e.mu.Unlock()
	if c == nil {
		return nil
	}
	st := c.Status()
	return &st
}

// Routes mounts the worker registration passthrough on the daemon's
// mux: lbfarm -worker -coord http://daemon:8800 lands here.
func (e *FleetExecutor) Routes(mux *http.ServeMux) {
	e.Registry.Routes(mux)
}

// WriteMetrics appends the fleet families to the daemon's /metrics
// exposition: registry gauges, the control-plane lease gauge and fault
// counters under lbcoord_, and the merged telemetry the status polls
// carried from the workers, each summed over the campaigns currently executing on the
// fleet (one at a time under lbfarmd -fleet).
func (e *FleetExecutor) WriteMetrics(w io.Writer) error {
	e.mu.Lock()
	coords := make([]*coord.Coordinator, 0, len(e.coords))
	for _, c := range e.coords {
		coords = append(coords, c)
	}
	e.mu.Unlock()
	var snaps []*obs.Snapshot
	var stats []coord.Stats
	leases := map[string]int{}
	for _, c := range coords {
		st := c.Status()
		stats = append(stats, st.Stats)
		for _, l := range st.Leases {
			leases[l.State]++
		}
		if snap := c.FleetSnapshot(); snap != nil {
			snaps = append(snaps, snap)
		}
	}
	var merged *obs.Snapshot
	if len(snaps) > 0 {
		merged = obs.MergeSnapshots(snaps...)
	}
	p := obs.NewPromWriter(w)
	p.Gauge("lbfleet_workers", "Workers registered with the daemon's fleet registry.", obs.Sample{Value: float64(e.Registry.Size())})
	p.Gauge("lbfleet_campaigns_running", "Campaigns currently executing on the fleet.", obs.Sample{Value: float64(len(coords))})
	var leaseSamples []obs.Sample
	for st := coord.StatePending; st <= coord.StateMerged; st++ {
		leaseSamples = append(leaseSamples, obs.Sample{
			Labels: []obs.Label{{Name: "state", Value: st.String()}},
			Value:  float64(leases[st.String()]),
		})
	}
	p.Gauge("lbcoord_leases", "Shard ranges by lease state.", leaseSamples...)
	for _, m := range []struct {
		name, help string
		v          func(coord.Stats) int
	}{
		{"lbcoord_workers_registered_total", "Workers joined to a campaign's pool; a rejoin after being declared dead counts again.", func(s coord.Stats) int { return s.Registered }},
		{"lbcoord_workers_dead_total", "Workers declared dead by the liveness timeout.", func(s coord.Stats) int { return s.DeadWorkers }},
		{"lbcoord_dispatches_total", "Range dispatches (speculative re-issues included).", func(s coord.Stats) int { return s.Dispatches }},
		{"lbcoord_requeues_total", "Failed range attempts re-queued behind backoff.", func(s coord.Stats) int { return s.Requeues }},
		{"lbcoord_speculations_total", "Speculative re-issues of straggling ranges.", func(s coord.Stats) int { return s.Speculations }},
		{"lbcoord_duplicates_discarded_total", "Journals from slower twins discarded after the winner landed.", func(s coord.Stats) int { return s.DuplicatesDiscarded }},
		{"lbcoord_ranges_journaled_total", "Ranges with a validated shard journal on disk.", func(s coord.Stats) int { return s.Journaled }},
		{"lbcoord_recovered_journals_total", "Shard journals seated from disk at startup.", func(s coord.Stats) int { return s.RecoveredJournals }},
	} {
		n := 0
		for _, st := range stats {
			n += m.v(st)
		}
		p.Counter(m.name, m.help, obs.Sample{Value: float64(n)})
	}
	p.Snapshot("lbfleet_", merged)
	return p.Err()
}

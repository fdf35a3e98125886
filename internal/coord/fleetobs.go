package coord

// Fleet telemetry aggregation: the coordinator periodically scrapes
// each worker's obs snapshot over the existing control API, caches it
// on the worker's state, and merges the cache into one live campaign
// snapshot (obs.MergeSnapshots — the same order-independent bucket-sum
// semantics Set.Snapshot uses one level down). The cache is the single
// scrape path: the fleet executor's /metrics families and the
// end-of-run fleetinfo sidecar read it, and the straggler detector
// reuses it instead of running its own parallel scraper.

import (
	"context"
	"encoding/json"
	"sort"
	"time"

	"repro/internal/obs"
)

// scrape refreshes every registered worker's cached snapshot once per
// ScrapeInterval; called each scheduler tick, after the transitions.
// Scrape RPC failures are silent — liveness is the poll loop's job, and
// a stale (or absent) snapshot just means that worker contributes its
// previous numbers to the fleet merge until it answers again.
func (c *Coordinator) scrape(ctx context.Context) {
	if c.cfg.ScrapeInterval < 0 {
		return
	}
	c.mu.Lock()
	if time.Since(c.lastScrape) < c.cfg.ScrapeInterval {
		c.mu.Unlock()
		return
	}
	c.lastScrape = time.Now()
	targets := c.scrapeTargetsLocked()
	c.mu.Unlock()
	for _, t := range targets {
		c.scrapeWorker(ctx, t.id, t.w)
	}
}

type scrapeTarget struct {
	id string
	w  Worker
}

// scrapeTargetsLocked lists the pool in stable ID order; call under c.mu.
func (c *Coordinator) scrapeTargetsLocked() []scrapeTarget {
	targets := make([]scrapeTarget, 0, len(c.workers))
	for id, ws := range c.workers {
		targets = append(targets, scrapeTarget{id, ws.w})
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })
	return targets
}

// scrapeWorker performs one snapshot RPC (outside the lock) and caches
// the result on the worker's state. Returns the snapshot, or nil when
// the worker did not answer, has no telemetry, or left the pool.
func (c *Coordinator) scrapeWorker(ctx context.Context, id string, w Worker) *obs.Snapshot {
	cctx, cancel := context.WithTimeout(ctx, c.cfg.RPCTimeout)
	snap, err := w.Snapshot(cctx)
	cancel()
	if err != nil || snap == nil {
		return nil
	}
	c.mu.Lock()
	if ws, ok := c.workers[id]; ok {
		ws.snap, ws.snapAt = snap, time.Now()
	}
	c.mu.Unlock()
	return snap
}

// freshSnapshot returns worker id's cached snapshot if it is younger
// than maxAge, scraping anew otherwise — the shared entry point the
// straggler detector uses, so a fleet scrape that just ran answers from
// cache instead of doubling the RPC load.
func (c *Coordinator) freshSnapshot(ctx context.Context, id string, maxAge time.Duration) *obs.Snapshot {
	c.mu.Lock()
	ws, ok := c.workers[id]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	if ws.snap != nil && maxAge > 0 && time.Since(ws.snapAt) <= maxAge {
		snap := ws.snap
		c.mu.Unlock()
		return snap
	}
	w := ws.w
	c.mu.Unlock()
	return c.scrapeWorker(ctx, id, w)
}

// FleetSnapshot merges the latest cached snapshot of every live worker
// into the campaign-level snapshot — per-stage latency distributions
// and counters across the whole fleet. Workers that never answered a
// scrape contribute nothing; buried workers' telemetry is dropped with
// them.
func (c *Coordinator) FleetSnapshot() *obs.Snapshot {
	c.mu.Lock()
	snaps := make([]*obs.Snapshot, 0, len(c.workers))
	for _, ws := range c.workers {
		snaps = append(snaps, ws.snap)
	}
	c.mu.Unlock()
	return obs.MergeSnapshots(snaps...)
}

// FleetInfo runs a final scrape of every live worker and assembles the
// campaign's fleetinfo sidecar: the merged end-of-run snapshot, one
// stub per worker that ever joined (survivors alive, buried ones not),
// and the coordinator's own fault counters keyed by their status-JSON
// names. Call after Run returns; the caller writes it next to the
// merged artifacts.
func (c *Coordinator) FleetInfo(ctx context.Context) *obs.FleetInfo {
	c.mu.Lock()
	targets := c.scrapeTargetsLocked()
	c.mu.Unlock()
	for _, t := range targets {
		c.scrapeWorker(ctx, t.id, t.w)
	}

	fi := obs.NewFleetInfo("lbfarmd", c.cfg.Spec.Name, c.specHash, c.cfg.Splits)
	c.mu.Lock()
	defer c.mu.Unlock()
	fi.Coord = statsMap(c.stats)
	fi.Workers = append([]obs.FleetWorker(nil), c.gone...)
	snaps := make([]*obs.Snapshot, 0, len(c.workers))
	for id, ws := range c.workers {
		stub := obs.FleetWorker{ID: id, Alive: true}
		if ws.snap != nil {
			stub.ElapsedNS = ws.snap.ElapsedNS
		}
		fi.Workers = append(fi.Workers, stub)
		snaps = append(snaps, ws.snap)
	}
	fi.Obs = obs.MergeSnapshots(snaps...)
	return fi
}

// statsMap projects the fault counters through their JSON tags, so the
// fleetinfo "coord" block uses the same names as the campaign status's
// fleet.stats block.
func statsMap(s Stats) map[string]int64 {
	data, err := json.Marshal(s)
	if err != nil {
		return nil
	}
	m := map[string]int64{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil
	}
	return m
}

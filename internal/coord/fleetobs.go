package coord

// Fleet telemetry aggregation: every status poll carries the worker's
// obs snapshot, the poll caches it on the worker's state, and the cache
// merges into one live campaign snapshot (obs.MergeSnapshots — the same
// order-independent bucket-sum semantics Set.Snapshot uses one level
// down). The fleet executor's /metrics families, the end-of-run
// fleetinfo sidecar and the straggler diagnosis all read that cache.

import (
	"encoding/json"

	"repro/internal/obs"
)

// FleetSnapshot merges the latest polled snapshot of every live worker
// into the campaign-level snapshot — per-stage latency distributions
// and counters across the whole fleet. Workers whose polls never
// carried telemetry contribute nothing; buried workers' telemetry is
// dropped with them.
func (c *Coordinator) FleetSnapshot() *obs.Snapshot {
	c.mu.Lock()
	snaps := make([]*obs.Snapshot, 0, len(c.workers))
	for _, ws := range c.workers {
		snaps = append(snaps, ws.snap)
	}
	c.mu.Unlock()
	return obs.MergeSnapshots(snaps...)
}

// FleetInfo assembles the campaign's fleetinfo sidecar: the merged
// end-of-run snapshot, one stub per worker that ever joined (survivors
// alive, buried ones not), and the coordinator's own fault counters
// keyed by their status-JSON names. Call after Run returns: every range
// was collected after a poll that saw its job done, and that poll's
// snapshot covers the whole job, so no further RPC is needed (only a
// canceled twin's trials after its last poll go uncounted, and they
// duplicate the winner's). The caller writes it next to the merged
// artifacts.
func (c *Coordinator) FleetInfo() *obs.FleetInfo {
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

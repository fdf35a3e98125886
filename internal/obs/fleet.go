package obs

// Fleet-level aggregation: re-merging already-merged snapshots. A
// worker's Snapshot is the bucket-sum of its recorders; summing worker
// snapshots bucket-wise therefore yields exactly the Snapshot a single
// Set spanning every worker would have produced — the same
// order-independence argument, one level up. The coordinator uses this
// to fold periodic worker scrapes into one live campaign snapshot and,
// at end of run, into the <campaign>.fleetinfo.json sidecar.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// FleetInfoSchema versions the fleetinfo sidecar layout.
const FleetInfoSchema = 1

// FleetInfoSuffix is the campaign-level sidecar suffix: a campaign
// named <name> writes <name>+FleetInfoSuffix next to its merged
// artifacts. Like runinfo sidecars, fleetinfo sits outside the
// artifact byte-identity contract.
const FleetInfoSuffix = ".fleetinfo.json"

// FleetWorker is one worker's contribution to a fleet merge: its ID
// and the last snapshot scraped from it. Alive marks workers still
// registered at merge time — a worker that died mid-campaign keeps its
// last scrape but is flagged so consumers know the numbers stop early.
type FleetWorker struct {
	ID        string `json:"id"`
	Alive     bool   `json:"alive"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// FleetInfo is the campaign-level sidecar: identity, the merged
// cross-fleet telemetry snapshot, per-worker contribution stubs, and
// the coordinator's own fault counters (keyed by their campaign-status
// JSON names, e.g. "workers_dead", "requeues", "speculations") so one
// file answers both "where did fleet time go" and "what went wrong".
type FleetInfo struct {
	Schema   int              `json:"schema"`
	Tool     string           `json:"tool"`
	Name     string           `json:"name"`
	SpecHash string           `json:"spec_hash"`
	Shards   int              `json:"shards"`
	Host     Host             `json:"host"`
	Workers  []FleetWorker    `json:"workers"`
	Coord    map[string]int64 `json:"coord,omitempty"`
	Obs      *Snapshot        `json:"obs"`
}

// NewFleetInfo starts the fleetinfo sidecar of one campaign, written by
// the named tool, with the writing host's facts filled in. Both writers
// (the coordinator's live fleet, lbmerge's shard sidecars) start here.
func NewFleetInfo(tool, name, specHash string, shards int) *FleetInfo {
	return &FleetInfo{Schema: FleetInfoSchema, Tool: tool, Name: name, SpecHash: specHash, Shards: shards, Host: NewRunInfo(tool).Host}
}

// JSON renders the sidecar, indented, newline-terminated, with the
// worker list sorted by ID so identical fleets render identically.
func (fi *FleetInfo) JSON() ([]byte, error) {
	sort.Slice(fi.Workers, func(i, j int) bool { return fi.Workers[i].ID < fi.Workers[j].ID })
	data, err := json.MarshalIndent(fi, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Write renders the sidecar to path.
func (fi *FleetInfo) Write(path string) error {
	data, err := fi.JSON()
	if err != nil {
		return fmt.Errorf("obs: encoding fleetinfo: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: writing fleetinfo: %w", err)
	}
	return nil
}

// ReadFleetInfo parses a fleetinfo sidecar from path.
func ReadFleetInfo(path string) (*FleetInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading fleetinfo: %w", err)
	}
	fi := &FleetInfo{}
	if err := json.Unmarshal(data, fi); err != nil {
		return nil, fmt.Errorf("obs: parsing fleetinfo %s: %w", path, err)
	}
	return fi, nil
}

// MergeSnapshots folds any number of snapshots into one, with the same
// semantics as Set.Snapshot over the union of their recorders:
// bucket-wise stage sums (percentiles recomputed over the merged
// buckets), counter sums, slot-wise timeline sums after rescaling every
// timeline to the widest slot width, and the max elapsed time. Nil
// entries are skipped; merging zero snapshots returns an empty (but
// schema-complete) snapshot. The result is order-independent.
func MergeSnapshots(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{
		Stages:   make(map[string]StageStats, NumStages),
		Counters: make(map[string]int64, NumCounters),
	}
	type acc struct {
		buckets [histBuckets]int64
		total   int64
		max     int64
	}
	stages := make(map[string]*acc, NumStages)
	// Every canonical stage key is always present, even over zero
	// inputs, matching Set.Snapshot's schema guarantee.
	for st := Stage(0); st < NumStages; st++ {
		stages[st.String()] = &acc{}
	}
	var width int64
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if s.ElapsedNS > out.ElapsedNS {
			out.ElapsedNS = s.ElapsedNS
		}
		for name, st := range s.Stages {
			a := stages[name]
			if a == nil {
				a = &acc{}
				stages[name] = a
			}
			for i, c := range st.Buckets {
				if i < histBuckets {
					a.buckets[i] += c
				}
			}
			a.total += st.TotalNS
			if st.MaxNS > a.max {
				a.max = st.MaxNS
			}
		}
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		if len(s.Timeline.Counts) > 0 && s.Timeline.WidthNS > width {
			width = s.Timeline.WidthNS
		}
	}
	for name, a := range stages {
		out.Stages[name] = stageStats(a.buckets[:], a.total, a.max)
	}
	out.Timeline = mergeTimelines(width, snaps)
	return out
}

// mergeTimelines sums the snapshots' timelines at the given target slot
// width. Every timeline width is the initial power-of-two width times
// some number of doublings, so a narrower timeline coalesces pairwise
// (exactly the in-memory coalescing rule) until it matches, then sums
// slot-wise.
func mergeTimelines(width int64, snaps []*Snapshot) Timeline {
	if width == 0 {
		return Timeline{}
	}
	var counts [timelineSlots]int64
	for _, s := range snaps {
		if s == nil || len(s.Timeline.Counts) == 0 {
			continue
		}
		var local [timelineSlots]int64
		copy(local[:], s.Timeline.Counts)
		for w := s.Timeline.WidthNS; w < width; w *= 2 {
			for i := 0; i < timelineSlots/2; i++ {
				local[i] = local[2*i] + local[2*i+1]
			}
			for i := timelineSlots / 2; i < timelineSlots; i++ {
				local[i] = 0
			}
		}
		for i := range counts {
			counts[i] += local[i]
		}
	}
	last := -1
	for i, c := range counts {
		if c != 0 {
			last = i
		}
	}
	return Timeline{WidthNS: width, Counts: append([]int64(nil), counts[:last+1]...)}
}

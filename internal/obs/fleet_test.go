package obs

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// workerSnapshot builds one synthetic worker snapshot with seeded but
// deterministic observations.
func workerSnapshot(seed int) *Snapshot {
	s := NewSet(1)
	r := s.Recorder(0)
	for i := 0; i < 10+seed; i++ {
		r.Observe(StageSimulate, time.Duration(1000*(i+seed+1)))
		r.Observe(StageJournalAppend, time.Duration(500*(i+1)))
	}
	r.Add(CounterTrialsAccepted, int64(10+seed))
	r.Add(CounterJournalRecords, int64(10+seed))
	snap := s.Snapshot()
	snap.ElapsedNS = int64(seed+1) * 1_000_000
	snap.Timeline = Timeline{WidthNS: 1 << 24, Counts: []int64{int64(seed + 1), 2}}
	return snap
}

// TestMergeSnapshotsSums: fleet counters and per-stage counts are the
// exact sums of the inputs — the invariant a campaign's fleetinfo rests
// on when it merges worker snapshots.
func TestMergeSnapshotsSums(t *testing.T) {
	a, b, c := workerSnapshot(0), workerSnapshot(3), workerSnapshot(7)
	m := MergeSnapshots(a, b, c)
	for _, key := range []string{"trials_accepted", "journal_records"} {
		want := a.Counters[key] + b.Counters[key] + c.Counters[key]
		if m.Counters[key] != want {
			t.Errorf("counter %s = %d, want %d", key, m.Counters[key], want)
		}
	}
	for _, st := range []string{"simulate", "journal_append"} {
		want := a.Stages[st].Count + b.Stages[st].Count + c.Stages[st].Count
		if m.Stages[st].Count != want {
			t.Errorf("stage %s count = %d, want %d", st, m.Stages[st].Count, want)
		}
		wantTotal := a.Stages[st].TotalNS + b.Stages[st].TotalNS + c.Stages[st].TotalNS
		if m.Stages[st].TotalNS != wantTotal {
			t.Errorf("stage %s total = %d, want %d", st, m.Stages[st].TotalNS, wantTotal)
		}
	}
	if m.ElapsedNS != c.ElapsedNS {
		t.Errorf("elapsed = %d, want max input %d", m.ElapsedNS, c.ElapsedNS)
	}
	// Every canonical stage key is present even if no input observed it.
	for st := Stage(0); st < NumStages; st++ {
		if _, ok := m.Stages[st.String()]; !ok {
			t.Errorf("stage key %q missing from merged snapshot", st)
		}
	}
}

// TestMergeSnapshotsOrderIndependent: any permutation of the inputs
// produces an identical merged snapshot — required for the scrape loop,
// which collects workers in registration-map order.
func TestMergeSnapshotsOrderIndependent(t *testing.T) {
	a, b, c := workerSnapshot(1), workerSnapshot(4), workerSnapshot(9)
	m1 := MergeSnapshots(a, b, c)
	m2 := MergeSnapshots(c, a, b)
	m3 := MergeSnapshots(b, c, a)
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(m1, m3) {
		t.Fatal("merged snapshot depends on input order")
	}
}

// TestMergeSnapshotsMatchesSingleSet: merging per-worker snapshots
// equals the snapshot of one set spanning the same observations — the
// same-semantics claim fleet aggregation rests on.
func TestMergeSnapshotsMatchesSingleSet(t *testing.T) {
	obsv := []struct {
		stage Stage
		d     time.Duration
	}{
		{StageSimulate, 800}, {StageSimulate, 70_000}, {StageBalance, 3_000},
		{StageSimulate, 2_000_000}, {StageFold, 12}, {StageBalance, 900_000},
	}
	one := NewSet(1)
	w1, w2 := NewSet(1), NewSet(1)
	for i, o := range obsv {
		one.Recorder(0).Observe(o.stage, o.d)
		if i%2 == 0 {
			w1.Recorder(0).Observe(o.stage, o.d)
		} else {
			w2.Recorder(0).Observe(o.stage, o.d)
		}
	}
	one.Recorder(0).Add(CounterMemoHit, 5)
	w1.Recorder(0).Add(CounterMemoHit, 2)
	w2.Recorder(0).Add(CounterMemoHit, 3)

	want := one.Snapshot()
	got := MergeSnapshots(w1.Snapshot(), w2.Snapshot())
	// Wall-clock fields legitimately differ; pin them before comparing.
	want.ElapsedNS, got.ElapsedNS = 0, 0
	want.Timeline, got.Timeline = Timeline{}, Timeline{}
	if !reflect.DeepEqual(want.Stages, got.Stages) {
		t.Errorf("merged stages diverge from single-set snapshot\ngot:  %+v\nwant: %+v", got.Stages, want.Stages)
	}
	if !reflect.DeepEqual(want.Counters, got.Counters) {
		t.Errorf("merged counters diverge: got %v want %v", got.Counters, want.Counters)
	}
}

// TestMergeTimelineRescale: a narrow timeline coalesces pairwise up to
// the widest input width before summing, so mixed-width fleets merge
// without losing ticks.
func TestMergeTimelineRescale(t *testing.T) {
	narrow := &Snapshot{Timeline: Timeline{WidthNS: 1 << 24, Counts: []int64{1, 2, 3, 4}}}
	wide := &Snapshot{Timeline: Timeline{WidthNS: 1 << 26, Counts: []int64{10, 20}}}
	m := MergeSnapshots(narrow, wide)
	if m.Timeline.WidthNS != 1<<26 {
		t.Fatalf("merged width = %d, want %d", m.Timeline.WidthNS, int64(1<<26))
	}
	// narrow at 1<<26: slot0 = 1+2+3+4 = 10.
	want := []int64{20, 20}
	if !reflect.DeepEqual(m.Timeline.Counts, want) {
		t.Fatalf("merged timeline = %v, want %v", m.Timeline.Counts, want)
	}
	var total int64
	for _, c := range m.Timeline.Counts {
		total += c
	}
	if total != 40 {
		t.Fatalf("ticks lost in rescale: total %d, want 40", total)
	}
}

// TestMergeSnapshotsNilAndEmpty: nil inputs are skipped and the empty
// merge still carries the full stage-key schema.
func TestMergeSnapshotsNilAndEmpty(t *testing.T) {
	m := MergeSnapshots(nil, nil)
	if len(m.Stages) != int(NumStages) {
		t.Fatalf("empty merge has %d stage keys, want %d", len(m.Stages), NumStages)
	}
	if m.ElapsedNS != 0 || len(m.Timeline.Counts) != 0 {
		t.Fatalf("empty merge not empty: %+v", m)
	}
	a := workerSnapshot(2)
	got := MergeSnapshots(nil, a, nil)
	want := MergeSnapshots(a)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil inputs perturb the merge")
	}
}

// TestFleetInfoRoundTrip: Write then ReadFleetInfo preserves identity,
// worker stubs (sorted by ID), and the merged snapshot.
func TestFleetInfoRoundTrip(t *testing.T) {
	fi := NewFleetInfo("lbfarmd", "campaign", "cafebabe", 4)
	fi.Workers = []FleetWorker{
		{ID: "w2", Alive: true, ElapsedNS: 500},
		{ID: "w1", Alive: false, ElapsedNS: 300},
	}
	fi.Coord = map[string]int64{"workers_dead": 1, "requeues": 2}
	fi.Obs = MergeSnapshots(workerSnapshot(0), workerSnapshot(1))

	path := filepath.Join(t.TempDir(), "campaign"+FleetInfoSuffix)
	if err := fi.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFleetInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != FleetInfoSchema || back.Name != "campaign" || back.SpecHash != "cafebabe" || back.Shards != 4 {
		t.Fatalf("identity fields lost: %+v", back)
	}
	if len(back.Workers) != 2 || back.Workers[0].ID != "w1" || back.Workers[1].ID != "w2" {
		t.Fatalf("worker stubs not sorted/preserved: %+v", back.Workers)
	}
	if back.Coord["workers_dead"] != 1 || back.Coord["requeues"] != 2 {
		t.Fatalf("coord counters lost: %v", back.Coord)
	}
	if !reflect.DeepEqual(back.Obs, fi.Obs) {
		t.Fatal("merged snapshot did not round-trip")
	}
}

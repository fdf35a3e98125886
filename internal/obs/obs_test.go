package obs

import (
	"encoding/json"
	"testing"
	"time"
)

// TestBucketOf pins the histogram layout: bucket 0 for non-positive
// durations, bucket i ≥ 1 for [2^(i−1), 2^i) ns, saturating at the top.
func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
		{1 << 62, 63}, {1<<63 - 1, 63},
	} {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestBucketMid: the midpoint must lie inside its own bucket.
func TestBucketMid(t *testing.T) {
	for i := 1; i < histBuckets-1; i++ {
		mid := bucketMid(i)
		if got := bucketOf(time.Duration(mid)); got != i {
			t.Errorf("bucketMid(%d) = %d falls in bucket %d", i, mid, got)
		}
	}
}

// TestStagePercentiles: nearest-rank percentiles over a known
// distribution, clamped to the exactly-tracked max.
func TestStagePercentiles(t *testing.T) {
	s := NewSet(1)
	r := s.Recorder(0)
	// 90 fast observations in [256,512) ns, 10 slow in [65536,131072) ns.
	for i := 0; i < 90; i++ {
		r.Observe(StageSimulate, 300)
	}
	for i := 0; i < 10; i++ {
		r.Observe(StageSimulate, 100_000)
	}
	st := s.Snapshot().Stages[StageSimulate.String()]
	if st.Count != 100 || st.TotalNS != 90*300+10*100_000 {
		t.Fatalf("count/total = %d/%d", st.Count, st.TotalNS)
	}
	if st.P50NS != bucketMid(bucketOf(300)) {
		t.Errorf("p50 = %d, want the fast bucket midpoint %d", st.P50NS, bucketMid(bucketOf(300)))
	}
	if st.P99NS != bucketMid(bucketOf(100_000)) {
		t.Errorf("p99 = %d, want the slow bucket midpoint %d", st.P99NS, bucketMid(bucketOf(100_000)))
	}
	if st.MaxNS != 100_000 {
		t.Errorf("max = %d, want the exactly-tracked 100000", st.MaxNS)
	}
}

// TestPercentileClampedToMax: a single observation sits in a bucket
// whose midpoint exceeds it, so without the clamp every percentile
// would overreport beyond the largest duration ever seen.
func TestPercentileClampedToMax(t *testing.T) {
	s := NewSet(1)
	s.Recorder(0).Observe(StageFold, 65_537) // bucket [65536,131072), midpoint 98304
	st := s.Snapshot().Stages[StageFold.String()]
	if st.P50NS != 65_537 || st.P99NS != 65_537 {
		t.Fatalf("p50/p99 = %d/%d, want both clamped to the exact max 65537", st.P50NS, st.P99NS)
	}
}

// feed replays a fixed multiset of observations into a set, spread
// over its workers by the given stride — the same observations land on
// different recorders for different worker counts.
func feed(s *Set, n int) {
	durs := []time.Duration{120, 950, 31_000, 2_400_000, 7, 0, 64_000}
	for i := 0; i < n; i++ {
		r := s.Recorder(i)
		r.Observe(StageSimulate, durs[i%len(durs)])
		r.Observe(StageBalance, durs[(i*3)%len(durs)])
		r.Add(CounterTrialsAccepted, 1)
		if i%4 == 0 {
			r.Add(CounterMemoHit, 1)
		}
	}
	s.Aux().Add(CounterJournalFsyncs, 2)
}

// TestSnapshotMergeOrderIndependent pins the merge contract: the same
// multiset of observations produces a byte-identical stage and counter
// merge no matter how many workers recorded it or in what order —
// bucket-wise addition is commutative, so 1, 2, and 8 workers agree.
func TestSnapshotMergeOrderIndependent(t *testing.T) {
	render := func(workers int) string {
		s := NewSet(workers)
		feed(s, 500)
		snap := s.Snapshot()
		// Elapsed and the timeline are wall-clock by design; blank them
		// so the comparison covers exactly the merged telemetry.
		snap.ElapsedNS = 0
		snap.Timeline = Timeline{}
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	one := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); got != one {
			t.Errorf("snapshot at %d workers diverges from 1 worker:\n%s\nvs\n%s", w, got, one)
		}
	}
}

// TestSnapshotAllStageKeys: every stage and counter key is present even
// when nothing was observed, so sidecar consumers can rely on the schema.
func TestSnapshotAllStageKeys(t *testing.T) {
	snap := NewSet(2).Snapshot()
	if len(snap.Stages) != int(NumStages) || len(snap.Counters) != int(NumCounters) {
		t.Fatalf("got %d stages, %d counters, want %d and %d",
			len(snap.Stages), len(snap.Counters), NumStages, NumCounters)
	}
	for st := Stage(0); st < NumStages; st++ {
		if _, ok := snap.Stages[st.String()]; !ok {
			t.Errorf("stage %q missing from empty snapshot", st)
		}
	}
}

// TestNilSafety: a nil set and nil recorders are complete no-ops — the
// disabled-telemetry path every call site takes with -obs=false.
func TestNilSafety(t *testing.T) {
	var s *Set
	if s.Recorder(3) != nil || s.Aux() != nil || s.Snapshot() != nil || s.Elapsed() != 0 {
		t.Fatal("nil Set must hand out nil recorders and a nil snapshot")
	}
	s.Tick()
	var r *Recorder
	r.Observe(StageBalance, time.Second)
	r.Add(CounterMemoHit, 1)
	if !r.Clock().IsZero() {
		t.Fatal("nil recorder must not read the clock")
	}
	if !r.Stamp(StageBalance, time.Now()).IsZero() {
		t.Fatal("nil recorder Stamp must return the zero time")
	}
}

// TestRecorderAllocFree: the hot-path methods perform zero allocations —
// the recorder is a fixed block of atomics, so observing must never
// touch the heap (the engine calls these once per stage per trial).
func TestRecorderAllocFree(t *testing.T) {
	r := NewSet(1).Recorder(0)
	if n := testing.AllocsPerRun(100, func() {
		t0 := r.Clock()
		r.Observe(StageSimulate, 1234)
		r.Add(CounterTrialsAccepted, 1)
		r.Stamp(StageBalance, t0)
	}); n != 0 {
		t.Fatalf("recorder hot path allocates %.1f objects per run, want 0", n)
	}
	var nilRec *Recorder
	if n := testing.AllocsPerRun(100, func() {
		nilRec.Observe(StageSimulate, 1234)
		nilRec.Stamp(StageBalance, nilRec.Clock())
	}); n != 0 {
		t.Fatalf("nil recorder path allocates %.1f objects per run, want 0", n)
	}
}

// TestTimelineCoalesce: outgrowing the slots doubles the width with
// pairwise coalescing, preserving the total count and each tick's slot.
func TestTimelineCoalesce(t *testing.T) {
	var tl timeline
	tl.init()
	w := tl.width
	// Two ticks early, then one far beyond the initial horizon.
	tl.tick(0)
	tl.tick(w + 1) // slot 1
	tl.tick(time.Duration(timelineSlots) * 3 * w)
	snap := tl.snapshot()
	var total int64
	for _, c := range snap.Counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("coalescing lost ticks: total %d, want 3", total)
	}
	if snap.WidthNS <= int64(w) {
		t.Fatalf("width %d did not double from %d", snap.WidthNS, w)
	}
	if snap.Counts[0] != 2 {
		t.Fatalf("early ticks did not coalesce into slot 0: %v", snap.Counts)
	}
}

// TestStageCounterNames: the published names are part of the sidecar
// schema; renaming one is a schema bump, so pin them.
func TestStageCounterNames(t *testing.T) {
	wantStages := []string{"generate", "schedule", "balance", "simulate",
		"analyze_before", "analyze_after", "journal_append", "journal_fsync",
		"sink_wait", "fold"}
	for i, want := range wantStages {
		if got := Stage(i).String(); got != want {
			t.Errorf("stage %d = %q, want %q", i, got, want)
		}
	}
	wantCounters := []string{"memo_hits", "memo_misses", "journal_records",
		"journal_bytes", "journal_fsyncs", "replayed_trials", "torn_repairs",
		"trials_accepted", "trials_rejected", "balance_placements", "trials_screened"}
	for i, want := range wantCounters {
		if got := Counter(i).String(); got != want {
			t.Errorf("counter %d = %q, want %q", i, got, want)
		}
	}
	if Stage(-1).String() != "unknown" || Counter(99).String() != "unknown" {
		t.Error("out-of-range names must render as unknown")
	}
}

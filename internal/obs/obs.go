// Package obs is the run-level telemetry layer of the campaign engine:
// low-overhead per-worker recorders that time every trial stage and
// count the events that matter (memo hits, journal fsyncs, replayed
// trials, …), merged deterministically at end of run into a
// machine-readable snapshot.
//
// Design constraints, in order:
//
//   - Nothing observed may perturb what is published. Telemetry lives
//     entirely outside the artifact byte-identity contract: the engine
//     produces bit-identical JSON/CSV with recorders attached or nil
//     (pinned by campaign's checkDeterminism), and the runinfo sidecar
//     is a separate file the determinism tests never compare.
//   - The hot path takes no locks and performs no allocations. A
//     Recorder is a fixed block of atomic counters — an observation is
//     one atomic add into a histogram bucket plus two more for the
//     sum and max — and every method is nil-receiver safe, so disabled
//     telemetry costs one predictable branch per call site.
//   - Merging is order-independent. Histograms are pure counts, so
//     merging per-worker recorders is bucket-wise addition and the
//     merged snapshot depends only on the multiset of observations,
//     never on which worker made them or in what order (pinned by
//     TestSnapshotMergeOrderIndependent).
//
// Latency histograms use 64 fixed log₂-scaled buckets over
// nanoseconds: bucket 0 holds non-positive durations, bucket i ≥ 1
// holds durations in [2^(i−1), 2^i) ns. Percentiles are nearest-rank
// over the bucket counts, reported at the bucket midpoint and clamped
// to the exactly-tracked maximum — a ≤ ~33% relative quantisation
// error, plenty for "where does the time go" and cheap enough to sit
// on every trial.
package obs

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stage enumerates the timed sections of the pipeline. The order here
// is the canonical reporting order; StageName is the key used in
// runinfo files and expvar output.
type Stage int

const (
	// StageGenerate is task-set generation (gen.Generate).
	StageGenerate Stage = iota
	// StageSchedule is the initial greedy schedule (sched.NewScheduler
	// .Run plus the dense-schedule materialisation).
	StageSchedule
	// StageBalance is the balancer suffix (core.Balancer.Run).
	StageBalance
	// StageSimulate is one simulator pass; an accepted trial records
	// two observations (the before and after schedules).
	StageSimulate
	// StageAnalyzeBefore is the policy-independent analyzer work of
	// the prefix: the prefix-only analyzers plus, with the before phase
	// enabled, the before-phase pass over the initial schedule. With
	// memoisation it is observed once per grid point, on the worker
	// that computed the prefix.
	StageAnalyzeBefore
	// StageAnalyzeAfter is the per-trial analyzer suffix: reuse
	// accounting, metric summaries, and the after-phase analyzer pass.
	StageAnalyzeAfter
	// StageJournalAppend is one whole journal append (marshal, frame,
	// write, and any fsync it triggered).
	StageJournalAppend
	// StageJournalFsync is the fsync wait alone, observed only on the
	// appends that synced.
	StageJournalFsync
	// StageSinkWait is the full engine-side sink call per trial —
	// journal append plus any lock wait; the gap between StageSinkWait
	// and StageJournalAppend is sink contention.
	StageSinkWait
	// StageFold is the end-of-run aggregation fold (collector
	// finalize, or the whole journal read+fold in lbmerge).
	StageFold

	// NumStages is the number of stages; keep it last.
	NumStages
)

var stageNames = [NumStages]string{
	"generate",
	"schedule",
	"balance",
	"simulate",
	"analyze_before",
	"analyze_after",
	"journal_append",
	"journal_fsync",
	"sink_wait",
	"fold",
}

// String returns the stage's canonical snake_case name.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Counter enumerates the event counters.
type Counter int

const (
	// CounterMemoHit / CounterMemoMiss count prefix sharing: a miss
	// computed the generate→schedule→simulate prefix (one per prefix
	// group), a hit reused it for a further policy cell.
	CounterMemoHit Counter = iota
	CounterMemoMiss
	// CounterJournalRecords / CounterJournalBytes / CounterJournalFsyncs
	// count journal appends, bytes written (frame included), and
	// explicit fsync calls.
	CounterJournalRecords
	CounterJournalBytes
	CounterJournalFsyncs
	// CounterReplayedTrials counts rows replayed from a journal on
	// resume (trials this run did not have to execute).
	CounterReplayedTrials
	// CounterTornRepairs counts torn journal tails truncated during
	// resume (0 or 1 per run).
	CounterTornRepairs
	// CounterTrialsAccepted / CounterTrialsRejected count live trial
	// outcomes (replayed rows are not re-counted).
	CounterTrialsAccepted
	CounterTrialsRejected
	// CounterBalancePlacements counts the blocks the balancer's walks
	// evaluated (core.Result.Placements): one per block per walked pass,
	// where policies that agree share a walk.
	CounterBalancePlacements
	// CounterTrialsScreened counts the rejected trials the
	// necessary-condition screen refused before scheduling: provably
	// infeasible systems, as opposed to ones the heuristic missed.
	CounterTrialsScreened

	// NumCounters is the number of counters; keep it last.
	NumCounters
)

var counterNames = [NumCounters]string{
	"memo_hits",
	"memo_misses",
	"journal_records",
	"journal_bytes",
	"journal_fsyncs",
	"replayed_trials",
	"torn_repairs",
	"trials_accepted",
	"trials_rejected",
	"balance_placements",
	"trials_screened",
}

// String returns the counter's canonical snake_case name.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}

// histBuckets is the fixed histogram width: bucket 0 for d ≤ 0, bucket
// i ≥ 1 for durations in [2^(i−1), 2^i) nanoseconds. 63 doublings
// cover every representable duration.
const histBuckets = 64

// hist is one lock-free latency histogram. The max is tracked exactly
// (CAS loop); everything else is bucket counts plus the exact sum.
type hist struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

func (h *hist) observe(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur {
			return
		}
		if h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketMid is the representative (midpoint) value of bucket i in
// nanoseconds: the centre of [2^(i−1), 2^i).
func bucketMid(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i == 1:
		return 1
	default:
		return 3 << (i - 2)
	}
}

// Recorder is one lock-free telemetry sink: a fixed block of atomic
// stage histograms and event counters. The zero value is ready to use;
// a nil *Recorder is a valid no-op sink, so call sites do not branch
// on whether telemetry is enabled. All methods are safe for concurrent
// use — per-worker recorders exist to avoid cache-line contention, not
// for correctness.
type Recorder struct {
	stages   [NumStages]hist
	counters [NumCounters]atomic.Int64
}

// Observe records one latency sample for a stage. No-op on nil.
func (r *Recorder) Observe(s Stage, d time.Duration) {
	if r == nil {
		return
	}
	r.stages[s].observe(d)
}

// Add increments a counter by n. No-op on nil.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Clock returns the current time, or the zero time on a nil recorder —
// the paired start call for Stamp, so a disabled recorder never reads
// the clock.
func (r *Recorder) Clock() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stamp observes now−t0 into stage s and returns now, chaining the
// next stage's start out of the same clock read. No-op (returning the
// zero time) on nil.
func (r *Recorder) Stamp(s Stage, t0 time.Time) time.Time {
	if r == nil {
		return time.Time{}
	}
	now := time.Now()
	r.stages[s].observe(now.Sub(t0))
	return now
}

// Set owns the per-worker recorders of one run plus the shared
// throughput timeline. A nil *Set disables telemetry end to end: every
// method no-ops and Recorder/Aux return nil no-op recorders.
type Set struct {
	start time.Time
	recs  []*Recorder
	tl    timeline
}

// NewSet builds recorders for `workers` workers (≤ 0 means GOMAXPROCS)
// plus one auxiliary recorder for non-worker contexts (journal writer,
// CLI-side counters). The run clock for the throughput timeline starts
// now.
func NewSet(workers int) *Set {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Set{start: time.Now(), recs: make([]*Recorder, workers+1)}
	for i := range s.recs {
		s.recs[i] = &Recorder{}
	}
	s.tl.init()
	return s
}

// Recorder returns worker w's recorder (any w is safe; ids wrap), or
// nil when the set is nil.
func (s *Set) Recorder(w int) *Recorder {
	if s == nil {
		return nil
	}
	n := len(s.recs) - 1
	if w < 0 {
		w = -w
	}
	return s.recs[w%n]
}

// Aux returns the auxiliary recorder shared by non-worker contexts, or
// nil when the set is nil.
func (s *Set) Aux() *Recorder {
	if s == nil {
		return nil
	}
	return s.recs[len(s.recs)-1]
}

// Tick records one trial completion on the throughput timeline.
func (s *Set) Tick() {
	if s == nil {
		return
	}
	s.tl.tick(time.Since(s.start))
}

// Elapsed returns the time since the set was created (zero on nil).
func (s *Set) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.start)
}

// timelineSlots is the fixed slot count of the throughput timeline;
// the slot width doubles (counts coalescing pairwise) whenever the run
// outgrows it, so any run length fits at ≤ 2× resolution loss.
const timelineSlots = 64

// timeline counts trial completions per fixed-width time slot. Ticks
// happen once per trial — three orders of magnitude off the per-stage
// hot path — so a plain mutex is cheaper than getting lock-free
// coalescing right.
type timeline struct {
	mu     sync.Mutex
	width  time.Duration
	counts [timelineSlots]int64
}

func (t *timeline) init() {
	// 16.8ms slots cover the first ~1.07s before the first coalesce;
	// a power of two keeps every later width a clean multiple.
	t.width = 1 << 24
}

func (t *timeline) tick(off time.Duration) {
	if off < 0 {
		off = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for off/t.width >= timelineSlots {
		for i := 0; i < timelineSlots/2; i++ {
			t.counts[i] = t.counts[2*i] + t.counts[2*i+1]
		}
		for i := timelineSlots / 2; i < timelineSlots; i++ {
			t.counts[i] = 0
		}
		t.width *= 2
	}
	t.counts[off/t.width]++
}

// snapshot copies the timeline, trimming trailing empty slots.
func (t *timeline) snapshot() Timeline {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := -1
	for i, c := range t.counts {
		if c != 0 {
			last = i
		}
	}
	return Timeline{
		WidthNS: int64(t.width),
		Counts:  append([]int64(nil), t.counts[:last+1]...),
	}
}

// StageStats is the merged summary of one stage's latency histogram.
// Percentiles are nearest-rank over the log₂ buckets, reported at the
// bucket midpoint and clamped to the exact maximum; Buckets carries
// the raw counts (index = log₂ layout above) so downstream consumers
// can re-aggregate without precision loss.
type StageStats struct {
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	P50NS   int64   `json:"p50_ns"`
	P90NS   int64   `json:"p90_ns"`
	P99NS   int64   `json:"p99_ns"`
	MaxNS   int64   `json:"max_ns"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Timeline is the trial-completion throughput timeline: Counts[i]
// trials finished in [i·WidthNS, (i+1)·WidthNS) after run start.
type Timeline struct {
	WidthNS int64   `json:"width_ns"`
	Counts  []int64 `json:"counts"`
}

// Snapshot is the deterministic merge of a Set's recorders: one
// StageStats per stage (every stage key always present, so consumers
// can rely on the schema) and one entry per counter.
type Snapshot struct {
	ElapsedNS int64                 `json:"elapsed_ns"`
	Stages    map[string]StageStats `json:"stages"`
	Counters  map[string]int64      `json:"counters"`
	Timeline  Timeline              `json:"timeline"`
}

// Snapshot merges every recorder of the set. Safe to call while the
// run is live (the debug endpoint does): each atomic is read once, so
// the result is a consistent-enough view for monitoring, and the final
// end-of-run call — after the workers have quiesced — is exact.
func (s *Set) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	snap := &Snapshot{
		ElapsedNS: int64(time.Since(s.start)),
		Stages:    make(map[string]StageStats, NumStages),
		Counters:  make(map[string]int64, NumCounters),
		Timeline:  s.tl.snapshot(),
	}
	for st := Stage(0); st < NumStages; st++ {
		var buckets [histBuckets]int64
		var total, max int64
		for _, r := range s.recs {
			h := &r.stages[st]
			for i := range buckets {
				buckets[i] += h.buckets[i].Load()
			}
			total += h.sum.Load()
			if m := h.max.Load(); m > max {
				max = m
			}
		}
		snap.Stages[st.String()] = stageStats(buckets[:], total, max)
	}
	for c := Counter(0); c < NumCounters; c++ {
		var v int64
		for _, r := range s.recs {
			v += r.counters[c].Load()
		}
		snap.Counters[c.String()] = v
	}
	return snap
}

// stageStats folds merged bucket counts into the published summary.
func stageStats(buckets []int64, total, max int64) StageStats {
	var count int64
	last := -1
	for i, c := range buckets {
		count += c
		if c != 0 {
			last = i
		}
	}
	st := StageStats{Count: count, TotalNS: total, MaxNS: max}
	if count == 0 {
		return st
	}
	st.Buckets = append([]int64(nil), buckets[:last+1]...)
	st.P50NS = clampMax(histPercentile(buckets, count, 0.50), max)
	st.P90NS = clampMax(histPercentile(buckets, count, 0.90), max)
	st.P99NS = clampMax(histPercentile(buckets, count, 0.99), max)
	return st
}

func clampMax(v, max int64) int64 {
	if v > max {
		return max
	}
	return v
}

// histPercentile is the nearest-rank percentile over bucket counts,
// reported at the owning bucket's midpoint.
func histPercentile(buckets []int64, count int64, q float64) int64 {
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(buckets) - 1)
}

package coord

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// StragglerPolicy decides when a leased range deserves a speculative
// twin. Speculation only ever runs on otherwise-idle workers after the
// pending queue is empty, so its cost is capacity that would have been
// wasted anyway — determinism makes the duplicate free (first complete
// journal wins). Its defaults live in DefaultOptions; New resolves a
// zero MinCompleted or SlowFactor to them.
type StragglerPolicy struct {
	// Disabled turns speculation off entirely.
	Disabled bool
	// MinCompleted is how many ranges must have completed before the
	// median baseline means anything.
	MinCompleted int
	// SlowFactor speculates a range whose projected total duration
	// exceeds this multiple of the median completed-range duration.
	SlowFactor float64
	// StallWindow speculates a range whose worker's throughput
	// timeline shows no trial completions for this long, regardless of
	// projection (disabled when zero). This is the scrape-side
	// signal: a wedged worker that still answers heartbeats projects
	// nothing useful, but its timeline goes flat.
	StallWindow time.Duration
}

// projectTotal extrapolates a range's total duration from the elapsed
// tenancy time and its done/total progress. No progress yet (or no
// elapsed time) projects nothing.
func projectTotal(elapsed time.Duration, done, total int) (time.Duration, bool) {
	if done <= 0 || total <= 0 || elapsed <= 0 {
		return 0, false
	}
	if done > total {
		done = total
	}
	return time.Duration(float64(elapsed) * float64(total) / float64(done)), true
}

// medianDuration is the middle (lower-middle for even counts) of ds.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// ShouldSpeculate applies the projection rule: enough completed ranges
// to trust the baseline, and a projection beyond SlowFactor × median.
func (p StragglerPolicy) ShouldSpeculate(projected time.Duration, completed []time.Duration) bool {
	if p.Disabled || projected <= 0 {
		return false
	}
	if len(completed) < p.MinCompleted {
		return false
	}
	med := medianDuration(completed)
	if med <= 0 {
		return false
	}
	return float64(projected) > p.SlowFactor*float64(med)
}

// Stalled applies the scrape rule: the worker's throughput timeline
// shows at least one completion ever, but none within the trailing
// window. A nil snapshot (worker runs without telemetry) is never
// stalled — absence of evidence stays absence of evidence.
func (p StragglerPolicy) Stalled(s *obs.Snapshot) bool {
	if p.Disabled || p.StallWindow <= 0 || s == nil || s.Timeline.WidthNS <= 0 {
		return false
	}
	lastEnd := int64(-1)
	for i, c := range s.Timeline.Counts {
		if c > 0 {
			lastEnd = int64(i+1) * s.Timeline.WidthNS
		}
	}
	if lastEnd < 0 {
		return false
	}
	return s.ElapsedNS-lastEnd > int64(p.StallWindow)
}

// computeStages and ioStages partition the pipeline stages for
// Classify; fold is coordinator-side and excluded.
var (
	computeStages = []string{"generate", "schedule", "balance", "simulate", "analyze_before", "analyze_after"}
	ioStages      = []string{"journal_append", "journal_fsync", "sink_wait"}
)

// Classify names a straggler's dominant cost centre from its scraped
// snapshot — "compute-bound (balance 61%)" vs "fsync-bound
// (journal_fsync 48%)" — so the speculation log line says not just that
// a worker is slow but why. journal_append covers the fsync it
// triggers, so the I/O side is counted by sink_wait plus the fsync wait
// rather than double-counting appends.
func Classify(s *obs.Snapshot) string {
	if s == nil || len(s.Stages) == 0 {
		return "unclassified (no snapshot)"
	}
	var computeNS, ioNS int64
	topName, topNS := "", int64(0)
	sum := func(names []string, acc *int64) {
		for _, n := range names {
			st, ok := s.Stages[n]
			if !ok {
				continue
			}
			*acc += st.TotalNS
			if st.TotalNS > topNS || (st.TotalNS == topNS && n < topName) {
				topName, topNS = n, st.TotalNS
			}
		}
	}
	sum(computeStages, &computeNS)
	sum(ioStages, &ioNS)
	total := computeNS + ioNS
	if total == 0 || topNS == 0 {
		return "unclassified (no stage time)"
	}
	kind := "compute-bound"
	for _, n := range ioStages {
		if n == topName {
			kind = "fsync-bound"
			break
		}
	}
	return fmt.Sprintf("%s (%s %.0f%%)", kind, topName, 100*float64(topNS)/float64(total))
}

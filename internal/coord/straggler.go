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
// journal wins). Both of its rules read the status poll. Its defaults
// live in DefaultOptions; New resolves a zero MinCompleted or
// SlowFactor to them.
type StragglerPolicy struct {
	// Disabled turns speculation off entirely.
	Disabled bool
	// MinCompleted is how many ranges must have completed before the
	// median baseline means anything.
	MinCompleted int
	// SlowFactor speculates a range whose projected total duration
	// exceeds this multiple of the median completed-range duration.
	SlowFactor float64
	// StallWindow speculates a range whose polled Done has not risen
	// for this long, regardless of projection (disabled when zero): a
	// wedged worker still answers the poll, but its progress stands
	// still.
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

// ShouldSpeculate applies the policy to one tenancy and says why it
// deserves a twin. The projection rule wants enough completed ranges to
// trust the baseline and a projected duration beyond SlowFactor × their
// median; the stall rule wants the polled Done to have stood still
// (quiet) for longer than StallWindow.
func (p StragglerPolicy) ShouldSpeculate(projected, quiet time.Duration, completed []time.Duration) (why string, ok bool) {
	if p.Disabled {
		return "", false
	}
	med := medianDuration(completed)
	if projected > 0 && len(completed) >= p.MinCompleted && med > 0 && float64(projected) > p.SlowFactor*float64(med) {
		return fmt.Sprintf("projected %v vs median %v", projected.Round(time.Millisecond), med.Round(time.Millisecond)), true
	}
	if p.StallWindow > 0 && quiet > p.StallWindow {
		return fmt.Sprintf("no progress for > %v", p.StallWindow), true
	}
	return "", false
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

package core

import "repro/internal/model"

// trace.go condenses a balancing run's move trace — and, when candidate
// recording was on, the per-processor evaluations behind each move —
// into the flat counters the campaign analyzers publish. The summary is
// pure arithmetic over Result, so it is deterministic wherever the run
// itself is.

// TraceSummary is the flattened move/candidate trace of one Result.
type TraceSummary struct {
	Moves     int // placement decisions (one per block)
	Relocated int // moves whose destination differs from the origin
	Gained    int // moves with a strictly positive gain

	GainSum model.Time // Σ gain over all moves (the paper's Gtotal)
	GainMax model.Time // largest single-move gain

	Forced     int // blocks no processor could take (kept in place)
	RelaxedLCM int // blocks placed only after relaxing eq. (4)

	// Candidate accounting: every (block, processor) evaluation of the
	// policy pass is counted, split by feasibility. The counts come from
	// Move.FeasibleProcs, so they do not need RecordCandidates.
	CandEvals    int
	CandFeasible int

	// Conservative reports the provably-safe second pass was used.
	Conservative bool
}

// Trace summarises the result's move trace.
func (r *Result) Trace() TraceSummary {
	s := TraceSummary{Moves: len(r.Moves), Forced: r.Forced, RelaxedLCM: r.RelaxedLCM,
		Conservative: r.ConservativePropagation}
	for _, mv := range r.Moves {
		if mv.To != mv.From {
			s.Relocated++
		}
		if mv.Gain > 0 {
			s.Gained++
		}
		s.GainSum += mv.Gain
		if mv.Gain > s.GainMax {
			s.GainMax = mv.Gain
		}
		s.CandFeasible += mv.FeasibleProcs
	}
	s.CandEvals = len(r.Moves) * r.Schedule.Arch.Procs
	return s
}

package analyzers

import "repro/internal/analysis"

// The schedulability analyzer re-screens the generated task set against
// the architecture with analysis.CheckSchedulability and publishes the
// margins: how much utilisation headroom the instance had, how full its
// densest period window was, and how many task pairs could never share
// a processor. Together they explain acceptance behaviour — trials near
// zero margin are the ones the greedy substrate starts refusing.
//
// The screen depends only on the generated system and the architecture
// (PrefixOnly), so the engine evaluates it once per memoised prefix and
// reads the report its prefix screen already made (Input.Screen): the
// pair scan is not repeated per policy cell, nor for the analyzer.

func init() {
	register(&Analyzer{
		Name:       "schedulability",
		PrefixOnly: true,
		Keys: []string{
			"schedulability.densest_demand",
			"schedulability.densest_margin",
			"schedulability.densest_period",
			"schedulability.pair_conflict_ratio",
			"schedulability.pair_conflicts",
			"schedulability.util",
			"schedulability.util_margin",
		},
		Run: runSchedulability,
	})
}

func runSchedulability(in *Input) []float64 {
	// An accepted trial passed the screen on the way in, but the report
	// is still returned alongside any error, so the margins are valid
	// either way.
	rep := in.Screen
	if rep == nil {
		rep, _ = analysis.CheckSchedulability(in.TS, in.Procs)
	}

	n := in.TS.Len()
	pairs := n * (n - 1) / 2
	ratio := 0.0
	if pairs > 0 {
		ratio = float64(len(rep.PairConflicts)) / float64(pairs)
	}
	return []float64{
		float64(rep.DensestDemand),
		rep.DensestMargin(),
		float64(rep.DensestPeriod),
		ratio,
		float64(len(rep.PairConflicts)),
		rep.Utilization,
		rep.UtilMargin(),
	}
}

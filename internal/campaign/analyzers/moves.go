package analyzers

// The moves analyzer condenses the balancer's per-policy move trace:
// how many blocks actually relocated (block churn), how the gain was
// distributed over moves, and — from the balancer's per-move feasible
// counts — how selective the per-processor evaluation was. It reads
// counts only, so it leaves candidate recording (and its allocations)
// off. This is the
// instrument that distinguishes a policy that wins by a few large moves
// from one that wins by many small ones.
//
// It reads the balancing outcome itself (AfterOnly): there is no move
// trace before balancing, so it never emits before.* or delta.* keys.

func init() {
	register(&Analyzer{
		Name:      "moves",
		AfterOnly: true,
		// The trial's move/forced/relaxed-LCM totals are already headline
		// metrics (`moves`, `forced`, `relaxed_lcm`); only the genuinely
		// new trace quantities are published here.
		Keys: []string{
			"moves.block_churn",
			"moves.cand_evals",
			"moves.cand_feasible",
			"moves.cand_feasible_ratio",
			"moves.conservative",
			"moves.gain_max",
			"moves.gain_mean",
			"moves.gained",
			"moves.relocated",
		},
		Run: runMoves,
	})
}

func runMoves(in *Input) []float64 {
	tr := in.Balance.Trace()
	churn, gainMean, feasRatio := 0.0, 0.0, 0.0
	if tr.Moves > 0 {
		churn = float64(tr.Relocated) / float64(tr.Moves)
		gainMean = float64(tr.GainSum) / float64(tr.Moves)
	}
	if tr.CandEvals > 0 {
		feasRatio = float64(tr.CandFeasible) / float64(tr.CandEvals)
	}
	conservative := 0.0
	if tr.Conservative {
		conservative = 1
	}
	return []float64{
		churn,
		float64(tr.CandEvals),
		float64(tr.CandFeasible),
		feasRatio,
		conservative,
		float64(tr.GainMax),
		gainMean,
		float64(tr.Gained),
		float64(tr.Relocated),
	}
}

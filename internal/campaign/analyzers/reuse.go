package analyzers

import "repro/internal/sim"

// The reuse analyzer plumbs the paper's figure-1 memory argument
// (internal/sim/reuse.go) into campaigns: per processor, the paper
// charges every resident instance its full memory amount ("memory
// reuse is not always possible"), while a real allocator can reuse
// storage between instances whose buffer lifetimes do not overlap.
// sim.MinMemoryWithReuse computes that lower bound; the analyzer
// publishes both accountings plus the savings fraction.
//
// It is phase-sensitive: it reads only the phase's schedule (Sched),
// so with the before phase enabled the artifacts carry the reuse
// accounting of the initial schedule, the balanced one, and their
// delta — how balancing moved the reuse opportunity, not just the
// paper-accounted totals the headline metrics (paper_mem, reuse_mem,
// reuse_savings) already report for the balanced schedule.

func init() {
	register(&Analyzer{
		Name: "reuse",
		Keys: []string{
			"reuse.paper_max",
			"reuse.paper_total",
			"reuse.reuse_max",
			"reuse.reuse_total",
			"reuse.savings",
			"reuse.savings_defined",
		},
		Run: runReuse,
	})
}

func runReuse(in *Input) []float64 {
	rep := in.Reuse
	if rep == nil {
		rep = sim.MinMemoryWithReuse(in.Sched)
	}
	var paperTotal, paperMax, reuseTotal, reuseMax float64
	for i := range rep.Paper {
		p, u := float64(rep.Paper[i]), float64(rep.Reuse[i])
		paperTotal += p
		reuseTotal += u
		if p > paperMax {
			paperMax = p
		}
		if u > reuseMax {
			reuseMax = u
		}
	}
	// SavingsOK disambiguates the two zero cases: savings_defined is 0
	// when ΣPaper==0 (nothing to compare — the savings value is a
	// convention, not a measurement) and 1 when the 0 means "genuinely
	// no savings". Balancing only relocates instances, so ΣPaper — and
	// with it this flag — is identical in both phases:
	// delta.reuse.savings_defined is structurally zero (documented in
	// docs/analyzers.md; the delta machinery is uniform over a set's
	// keys rather than special-casing flag columns).
	savings, ok := rep.SavingsOK()
	defined := 0.0
	if ok {
		defined = 1
	}
	return []float64{paperMax, paperTotal, reuseMax, reuseTotal, savings, defined}
}

package analysis

import (
	"cmp"
	"fmt"
	"math/big"
	"math/bits"
	"slices"

	"repro/internal/model"
)

// schedulability.go collects necessary conditions for non-preemptive
// strict-periodic multiprocessor schedulability. The campaign engine
// runs them on every generated system before the scheduling heuristic
// (which is incomplete: a rejection by these conditions is definitive,
// a pass is not a guarantee).

// SchedReport is the outcome of the necessary-condition screen.
type SchedReport struct {
	Utilization   float64 // ΣEi/Ti, reported only: the screen decides on integers
	UtilBound     float64 // M
	DensestPeriod model.Time
	DensestDemand model.Time // busy time demanded within the densest period class
	PairConflicts []PairConflict
	PassesAll     bool
}

// PairConflict names two tasks that can never share any processor
// (Ei + Ej > gcd(Ti, Tj)): wherever they run, they must be split across
// processors, and a dependence between them then forces an
// inter-processor communication. A < B.
type PairConflict struct {
	A, B model.TaskID
	GCD  model.Time
}

// CheckSchedulability screens a task set against M processors:
//
//  1. Hyper-period demand: Σ Ei·(H/Ti) ≤ M·H, the integer form of
//     ΣEi/Ti ≤ M. It is compared in 128 bits, so no hyper-period can
//     wrap it; the float utilisation can round past M on a set at
//     exactly full load, so it is reported but never decides.
//  2. Pairwise gcd windows: Ei + Ej ≤ gcd(Ti, Tj) must hold for two
//     tasks to share a processor (reference [1] theory, see
//     model.Compatible, and the scheduler's occupancy rings, which fold
//     co-resident tasks by the same rule); conflicting pairs are
//     reported, and a clique of more than M mutually incompatible tasks
//     is a definitive rejection.
//
// It returns the report and an error when a definitive impossibility is
// found. A set the first condition refuses gets no pair scan: its
// report carries the utilisation only.
//
// The pair scan works on period classes, not on task pairs: within one
// pair of classes the gcd is fixed, so with each class's WCETs sorted a
// task's conflicting partners are the suffix of WCETs above gcd − E.
// The scan costs O(n log n + P²·n) for P classes plus the conflicts it
// reports, against n²/2 gcds for the plain double loop.
func CheckSchedulability(ts *model.TaskSet, m int) (*SchedReport, error) {
	if m < 1 {
		return nil, fmt.Errorf("analysis: need at least one processor")
	}
	rep := &SchedReport{
		Utilization: ts.Utilization(),
		UtilBound:   float64(m),
		PassesAll:   true,
	}
	cs := newClasses(ts)
	if dhi, dlo, chi, clo := cs.demand(m); dhi > chi || (dhi == chi && dlo > clo) {
		rep.PassesAll = false
		return rep, fmt.Errorf("analysis: utilisation %.3f exceeds %d processors: hyper-period demand %s exceeds capacity %s",
			rep.Utilization, m, u128(dhi, dlo), u128(chi, clo))
	}

	// Densest period class, reported for diagnostics (a class overflowing
	// M copies of its period implies demand > M·H, so the bound above
	// already rejects it — no separate check needed).
	for _, c := range cs.list {
		if c.demand > rep.DensestDemand || (c.demand == rep.DensestDemand && c.period > rep.DensestPeriod) {
			rep.DensestPeriod, rep.DensestDemand = c.period, c.demand
		}
	}

	rep.PairConflicts = cs.conflicts()
	// A clique of pairwise-incompatible tasks needs one processor each.
	// Maximum clique is NP-hard; a greedily grown clique is a sound lower
	// bound, and exceeding M already proves infeasibility.
	if clique := cs.greedyIncompatClique(ts, m); clique > m {
		rep.PassesAll = false
		return rep, fmt.Errorf("analysis: %d mutually incompatible tasks exceed %d processors", clique, m)
	}
	return rep, nil
}

// UtilMargin returns the spare processor capacity M − ΣEi/Ti: how far
// the task set sits below the utilisation bound. Zero means saturation,
// negative means definitive infeasibility.
func (r *SchedReport) UtilMargin() float64 {
	return r.UtilBound - r.Utilization
}

// DensestMargin returns the free fraction of the densest period window:
// 1 − demand/(M·P) for the densest period class P. It is 1 for an empty
// report and clamps nothing — a negative value means even the densest
// class alone overflows the architecture.
func (r *SchedReport) DensestMargin() float64 {
	if r.DensestPeriod <= 0 {
		return 1
	}
	return 1 - float64(r.DensestDemand)/(r.UtilBound*float64(r.DensestPeriod))
}

// entry is one task of a period class: its WCET and ID.
type entry struct {
	wcet model.Time
	id   model.TaskID
}

// class is the tasks sharing one period, sorted by WCET.
type class struct {
	period model.Time
	demand model.Time // ΣE over the class
	tasks  []entry
}

// classes is a task set grouped by period, in increasing period order;
// of[id] is the index of task id's class.
type classes struct {
	hyper model.Time
	list  []class
	of    []int32
}

func newClasses(ts *model.TaskSet) *classes {
	n := ts.Len()
	cs := &classes{hyper: ts.HyperPeriod(), of: make([]int32, n)}
	periods := make([]model.Time, n)
	for i := range n {
		periods[i] = ts.Task(model.TaskID(i)).Period
	}
	slices.Sort(periods)
	periods = slices.Compact(periods)
	count := make([]int, len(periods))
	for i := range n {
		k, _ := slices.BinarySearch(periods, ts.Task(model.TaskID(i)).Period)
		cs.of[i] = int32(k)
		count[k]++
	}
	all := make([]entry, n)
	cs.list = make([]class, len(periods))
	off := 0
	for k, p := range periods {
		cs.list[k] = class{period: p, tasks: all[off : off : off+count[k]]}
		off += count[k]
	}
	for i := range n {
		t := ts.Task(model.TaskID(i))
		c := &cs.list[cs.of[i]]
		c.tasks = append(c.tasks, entry{t.WCET, t.ID})
		c.demand += t.WCET
	}
	for k := range cs.list {
		slices.SortFunc(cs.list[k].tasks, func(a, b entry) int { return cmp.Compare(a.wcet, b.wcet) })
	}
	return cs
}

// demand returns Σ Ei·(H/Ti) and M·H as 128-bit (hi, lo) pairs. Every
// term is at most H because Ei ≤ Ti, so only the sum can outgrow 64
// bits, by at most log2(n) of them.
func (cs *classes) demand(m int) (dhi, dlo, chi, clo uint64) {
	h := uint64(cs.hyper)
	for _, c := range cs.list {
		q := h / uint64(c.period)
		for _, e := range c.tasks {
			var carry uint64
			dlo, carry = bits.Add64(dlo, uint64(e.wcet)*q, 0)
			dhi += carry
		}
	}
	chi, clo = bits.Mul64(uint64(m), h)
	return dhi, dlo, chi, clo
}

// u128 formats a 128-bit (hi, lo) pair in decimal.
func u128(hi, lo uint64) string {
	v := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
	return v.Or(v, new(big.Int).SetUint64(lo)).String()
}

// conflicts returns every pair of tasks with Ei + Ej > gcd(Ti, Tj), in
// (A, B) order. For classes a ≤ b with gcd g, the partners of a task of
// WCET e are the entries of b with WCET above g − e, a suffix found by
// binary search. Walking a's entries from the largest WCET down, the
// walk stops at the first entry with no partner.
func (cs *classes) conflicts() []PairConflict {
	var out []PairConflict
	for a := range cs.list {
		ca := &cs.list[a]
		for b := a; b < len(cs.list); b++ {
			cb := &cs.list[b]
			g := model.GCD(ca.period, cb.period)
			for x := len(ca.tasks) - 1; x >= 0; x-- {
				ex := ca.tasks[x]
				from, _ := slices.BinarySearchFunc(cb.tasks, g-ex.wcet+1, func(e entry, w model.Time) int { return cmp.Compare(e.wcet, w) })
				if from == len(cb.tasks) {
					break // smaller WCETs have no partner either
				}
				if a == b {
					// Within one class, pair each entry with the larger
					// ones only, so every pair is listed once.
					from = max(from, x+1)
				}
				for _, ey := range cb.tasks[from:] {
					out = append(out, PairConflict{A: min(ex.id, ey.id), B: max(ex.id, ey.id), GCD: g})
				}
			}
		}
	}
	slices.SortFunc(out, func(p, q PairConflict) int { return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B)) })
	return out
}

// greedyIncompatClique grows a clique of pairwise-incompatible tasks
// greedily in ID order (sound lower bound on the true maximum clique;
// stops early at m+1 since that already proves infeasibility).
func (cs *classes) greedyIncompatClique(ts *model.TaskSet, m int) int {
	var clique []model.Task
	for i := range ts.Len() {
		t := ts.Task(model.TaskID(i))
		ok := true
		for _, c := range clique {
			if t.WCET+c.WCET <= cs.gcd(t.ID, c.ID) {
				ok = false
				break
			}
		}
		if ok {
			clique = append(clique, t)
			if len(clique) > m {
				break
			}
		}
	}
	return len(clique)
}

// gcd returns gcd(Ti, Tj).
func (cs *classes) gcd(i, j model.TaskID) model.Time {
	return model.GCD(cs.list[cs.of[i]].period, cs.list[cs.of[j]].period)
}

package model

// compat.go implements the strict-periodicity compatibility theory the
// paper builds on (its reference [1], Cucu & Sorel: non-preemptive
// multiprocessor scheduling for strict periodic systems).
//
// Two strictly periodic non-preemptive tasks i and j share a processor
// without ever overlapping iff their start-time difference, reduced
// modulo g = gcd(Ti, Tj), leaves room for both WCETs:
//
//	Ei ≤ ((sj − si) mod g)  and  Ej ≤ g − ((sj − si) mod g)
//
// Intuition: the relative phase of the two instance trains is periodic
// with period g, and within every g-window task i occupies [0, Ei) while
// task j occupies [(sj−si) mod g, (sj−si) mod g + Ej) — the trains
// collide somewhere iff these two windows collide in the g-ring. This
// reduces the pairwise conflict test from iterating all instance pairs in
// the hyper-period to one modulo operation, and is the engine behind the
// scheduler's fast feasibility checks.

// Mod returns x mod m in [0, m), also for negative x.
func Mod(x, m Time) Time {
	if m <= 0 {
		return 0
	}
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// FoldOverlap reports whether two occupancies of one processor collide
// in the steady state of a pattern that repeats every h: whether
// [a, a+ea) meets [b+k·h, b+k·h+eb) for some integer k. Folded onto the
// ring [0, h), b starts d = (b − a) mod h after a, so they collide iff
// b's start falls inside a's window or a's start inside b's.
func FoldOverlap(a, ea, b, eb, h Time) bool {
	d := Mod(b-a, h)
	return ea > 0 && eb > 0 && (d < ea || h-d < eb)
}

// Compatible reports whether two strictly periodic non-preemptive tasks
// can share a processor with the given first-instance start times and
// never overlap: task i = (si, Ti, Ei), task j = (sj, Tj, Ej).
func Compatible(si, ti, ei, sj, tj, ej Time) bool {
	g := GCD(ti, tj)
	if g <= 0 {
		return false
	}
	if ei+ej > g {
		return false // the g-ring cannot hold both executions
	}
	d := Mod(sj-si, g)
	return ei <= d && d+ej <= g
}

// CompatWindow returns the set of residues r = (sj − si) mod g for which
// the two tasks are compatible, as the half-open interval [Ei, g−Ej] of
// admissible residues (empty when Ei+Ej > g). Schedulers can use it to
// jump directly to a feasible offset rather than probing.
func CompatWindow(ti, ei, tj, ej Time) (lo, hi Time, ok bool) {
	g := GCD(ti, tj)
	if g <= 0 || ei+ej > g {
		return 0, 0, false
	}
	return ei, g - ej, true
}

// FirstCompatibleAtLeast returns the smallest sj ≥ lower such that task
// j = (Tj, Ej) is compatible with task i = (si, Ti, Ei), or ok = false
// when no residue admits both (Ei + Ej > gcd).
func FirstCompatibleAtLeast(si, ti, ei Time, tj, ej Time, lower Time) (Time, bool) {
	lo, hi, ok := CompatWindow(ti, ei, tj, ej)
	if !ok {
		return 0, false
	}
	g := GCD(ti, tj)
	d := Mod(lower-si, g)
	switch {
	case d >= lo && d <= hi:
		return lower, true
	case d < lo:
		return lower + (lo - d), true
	default: // d > hi: wrap to the next window
		return lower + (g - d) + lo, true
	}
}

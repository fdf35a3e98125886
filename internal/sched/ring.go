package sched

import "repro/internal/model"

// ring.go holds the occupancy rings behind the scheduler's feasibility
// queries.
//
// The images of a start s of a task with period T are exactly the times
// in [0, H) congruent to s modulo T, so s is feasible on a processor iff
// the window [s mod T, s mod T + E) misses the processor's occupancy
// folded modulo T. Folding a co-resident task (s', T', E') modulo T
// leaves T/gcd(T, T') images of length E' spaced gcd(T, T') apart — the
// modulo-gcd compatibility test of model.Compatible, applied to every
// co-resident task at once. The argument needs only that T divides H,
// so it holds for harmonic and non-harmonic period families alike.

// span is one occupied interval [start, end) of a ring.
type span struct{ start, end model.Time }

// ring is one processor's occupancy folded modulo one period T: spans in
// [0, T), sorted, pairwise disjoint and not touching (adjacent spans are
// merged, which no WCET ≥ 1 can tell apart).
type ring []span

// add marks [a, b) occupied, for 0 ≤ a < b ≤ T, merging every span it
// overlaps or touches.
func (r ring) add(a, b model.Time) ring {
	// i: first span ending at or after a — the first one a may touch.
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid].end >= a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i, j := lo, lo
	for j < len(r) && r[j].start <= b {
		j++
	}
	if i == j {
		r = append(r, span{})
		copy(r[i+1:], r[i:])
		r[i] = span{a, b}
		return r
	}
	r[i] = span{min(a, r[i].start), max(b, r[j-1].end)}
	return append(r[:i+1], r[j:]...)
}

// fold adds the occupancy of a task with first start s, period tp and
// WCET e to a ring of period t: its t/gcd(t, tp) images, spaced
// gcd(t, tp) apart. An image running past t wraps to the ring's start.
func (r ring) fold(t, s, tp, e model.Time) ring {
	g := model.GCD(t, tp)
	if e >= g { // the images cover the ring
		return append(r[:0], span{0, t})
	}
	for x := model.Mod(s, g); x < t; x += g {
		if y := x + e; y <= t {
			r = r.add(x, y)
		} else {
			r = r.add(x, t).add(0, y-t)
		}
	}
	return r
}

// firstFit returns the smallest x in [r0, r0+reach] such that [x, x+e),
// repeated with period t, misses every span, for r0 ∈ [0, t) and
// 1 ≤ e ≤ t. One binary search finds the first span ending after r0;
// the walk then visits spans in unrolled order (wrapping to the ring's
// start at +t), jumping x past each span the window hits. Residues
// repeat with period t, so the walk never looks further than t − 1.
func (r ring) firstFit(t, r0, e, reach model.Time) (model.Time, bool) {
	if len(r) == 0 {
		return r0, true
	}
	limit := r0 + min(reach, t-1)
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r[mid].end > r0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i, off := lo, model.Time(0)
	if i == len(r) {
		i, off = 0, t
	}
	// Invariant: the span before r[i] (unrolled) ends at or before x, and
	// r[i] ends after x, so r[i] hits the window iff it starts inside it.
	for x := r0; ; {
		sp := r[i]
		if sp.start+off >= x+e {
			return x, true
		}
		if x = sp.end + off; x > limit {
			return 0, false
		}
		if i++; i == len(r) {
			i, off = 0, off+t
		}
	}
}

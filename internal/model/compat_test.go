package model

import (
	"testing"
	"testing/quick"
)

// bruteOverlap checks by enumeration whether two strictly periodic
// non-preemptive tasks ever overlap, over one LCM window with wrap
// images — the ground truth Compatible must agree with.
func bruteOverlap(si, ti, ei, sj, tj, ej Time) bool {
	h := LCM(ti, tj)
	// The steady-state pattern repeats with period h: reduce both phase
	// origins into [0, h) so the ±h images below cover all alignments.
	si, sj = Mod(si, h), Mod(sj, h)
	for a := Time(0); a < h/ti; a++ {
		as := si + a*ti
		ae := as + ei
		for b := Time(0); b < h/tj; b++ {
			bs := sj + b*tj
			be := bs + ej
			for _, d := range [3]Time{0, h, -h} {
				if as < be+d && bs+d < ae {
					return true
				}
			}
		}
	}
	return false
}

func TestCompatibleBasic(t *testing.T) {
	cases := []struct {
		si, ti, ei, sj, tj, ej Time
	}{
		{0, 4, 1, 1, 4, 1}, // interleaved, same period
		{0, 4, 1, 0, 4, 1}, // same slot
		{0, 4, 2, 2, 4, 2}, // back to back, exactly fits
		{0, 4, 2, 1, 4, 2}, // shifted into overlap
		{0, 3, 1, 1, 6, 1}, // harmonic pair (the paper's a/b shape)
		{0, 3, 1, 3, 6, 1}, // collides with the producer's second instance
		{0, 4, 2, 0, 6, 1}, // gcd 2 cannot hold 2+1
		{0, 6, 2, 8, 4, 1}, // residue arithmetic across a phase > period
	}
	for i, c := range cases {
		got := Compatible(c.si, c.ti, c.ei, c.sj, c.tj, c.ej)
		brute := !bruteOverlap(c.si, c.ti, c.ei, c.sj, c.tj, c.ej)
		if got != brute {
			t.Errorf("case %d: Compatible = %v, brute force = %v", i, got, brute)
		}
	}
}

// Property: Compatible agrees with instance enumeration on random
// parameters.
func TestCompatibleMatchesBruteForce(t *testing.T) {
	f := func(si0, sj0 uint8, ti0, tj0, ei0, ej0 uint8) bool {
		ti := Time(ti0%12) + 1
		tj := Time(tj0%12) + 1
		ei := Time(ei0)%ti + 1
		ej := Time(ej0)%tj + 1
		si := Time(si0 % 24)
		sj := Time(sj0 % 24)
		return Compatible(si, ti, ei, sj, tj, ej) == !bruteOverlap(si, ti, ei, sj, tj, ej)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestMod(t *testing.T) {
	cases := []struct{ x, m, want Time }{
		{7, 3, 1}, {-1, 3, 2}, {-3, 3, 0}, {0, 5, 0}, {5, 0, 0},
	}
	for _, c := range cases {
		if got := Mod(c.x, c.m); got != c.want {
			t.Errorf("Mod(%d,%d) = %d, want %d", c.x, c.m, got, c.want)
		}
	}
}

func TestCompatWindow(t *testing.T) {
	lo, hi, ok := CompatWindow(4, 1, 6, 1)
	if !ok || lo != 1 || hi != 1 {
		t.Errorf("CompatWindow(4,1,6,1) = [%d,%d] ok=%v, want [1,1] true", lo, hi, ok)
	}
	if _, _, ok := CompatWindow(4, 2, 6, 1); ok {
		t.Error("gcd 2 cannot host 2+1, window should be empty")
	}
}

// Property: FirstCompatibleAtLeast returns a start that is (a) ≥ lower,
// (b) compatible, and (c) minimal — no smaller start ≥ lower is
// compatible.
func TestFirstCompatibleAtLeastProperty(t *testing.T) {
	f := func(si0 uint8, ti0, tj0, ei0, ej0 uint8, lower0 uint8) bool {
		ti := Time(ti0%10) + 1
		tj := Time(tj0%10) + 1
		ei := Time(ei0)%ti + 1
		ej := Time(ej0)%tj + 1
		si := Time(si0 % 20)
		lower := Time(lower0 % 40)

		sj, ok := FirstCompatibleAtLeast(si, ti, ei, tj, ej, lower)
		if !ok {
			// No residue works: Compatible must fail for a whole gcd window.
			g := GCD(ti, tj)
			for d := Time(0); d < g; d++ {
				if Compatible(si, ti, ei, lower+d, tj, ej) {
					return false
				}
			}
			return true
		}
		if sj < lower || !Compatible(si, ti, ei, sj, tj, ej) {
			return false
		}
		for s := lower; s < sj; s++ {
			if Compatible(si, ti, ei, s, tj, ej) {
				return false // not minimal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFoldOverlapMatchesImages checks FoldOverlap against an explicit
// walk over every image b + k·h that can reach a's window.
func TestFoldOverlapMatchesImages(t *testing.T) {
	f := func(a0, b0 int16, ea0, eb0, h0 uint8) bool {
		h := Time(h0%20) + 1
		a, b := Time(a0%200), Time(b0%200)
		ea, eb := Time(ea0)%(h+2), Time(eb0)%(h+2)
		want := false
		base := (a - b) / h // images of b near a: k within a few of base
		for k := base - 3; k <= base+3; k++ {
			if bs := b + k*h; a < bs+eb && bs < a+ea && ea > 0 && eb > 0 {
				want = true
			}
		}
		return FoldOverlap(a, ea, b, eb, h) == want && FoldOverlap(b, eb, a, ea, h) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

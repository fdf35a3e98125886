package model

import (
	"testing"
	"testing/quick"
)

func TestGCDLCMBasics(t *testing.T) {
	cases := []struct{ a, b, gcd, lcm Time }{
		{3, 6, 3, 6},
		{4, 6, 2, 12},
		{7, 13, 1, 91},
		{0, 5, 5, 0},
		{5, 0, 5, 0},
		{12, 12, 12, 12},
		{-4, 6, 2, 12},
	}
	for _, c := range cases {
		if g := GCD(c.a, c.b); g != c.gcd {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, g, c.gcd)
		}
		if l := LCM(c.a, c.b); l != c.lcm {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, l, c.lcm)
		}
	}
}

func TestHarmonic(t *testing.T) {
	cases := []struct {
		a, b Time
		want bool
	}{
		{3, 6, true}, {6, 3, true}, {5, 5, true},
		{4, 6, false}, {0, 3, false}, {3, 0, false}, {-3, 6, false},
	}
	for _, c := range cases {
		if got := Harmonic(c.a, c.b); got != c.want {
			t.Errorf("Harmonic(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: GCD divides both arguments and LCM is a common multiple, for
// positive inputs.
func TestGCDLCMProperties(t *testing.T) {
	f := func(a0, b0 uint16) bool {
		a, b := Time(a0%1000)+1, Time(b0%1000)+1
		g := GCD(a, b)
		l := LCM(a, b)
		return g > 0 && a%g == 0 && b%g == 0 && l%a == 0 && l%b == 0 && g*l == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the instance k of a strictly periodic task starts exactly k
// periods after the first instance.
func TestInstanceStartProperty(t *testing.T) {
	f := func(s0 uint16, period0 uint8, k0 uint8) bool {
		s, p, k := Time(s0), Time(period0)+1, int(k0%64)
		return InstanceStart(s, p, k) == s+Time(k)*p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

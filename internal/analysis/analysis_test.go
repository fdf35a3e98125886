package analysis

import (
	"testing"

	"repro/internal/model"
)

func TestFactorial(t *testing.T) {
	cases := []struct {
		n    int
		want model.Time
	}{{0, 1}, {1, 1}, {2, 2}, {3, 6}, {5, 120}, {10, 3628800}}
	for _, c := range cases {
		if got := Factorial(c.n); got != c.want {
			t.Errorf("Factorial(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if Factorial(30) <= 0 {
		t.Error("overflow not saturated")
	}
}

func TestTheorem1Bound(t *testing.T) {
	if got := Theorem1Bound(1, 3); got != 2 {
		t.Errorf("γ(M−1)! for γ=1,M=3 = %d, want 2", got)
	}
	if got := Theorem1Bound(5, 4); got != 30 {
		t.Errorf("γ(M−1)! for γ=5,M=4 = %d, want 30", got)
	}
	if got := Theorem1Bound(1, 0); got != 0 {
		t.Errorf("M=0 bound = %d, want 0", got)
	}
}

func TestAlphaBound(t *testing.T) {
	if got := AlphaBound(1); got != 1 {
		t.Errorf("AlphaBound(1) = %v, want 1 (single processor is trivially optimal)", got)
	}
	if got := AlphaBound(2); got != 1.5 {
		t.Errorf("AlphaBound(2) = %v, want 1.5", got)
	}
	if got := AlphaBound(4); got != 1.75 {
		t.Errorf("AlphaBound(4) = %v, want 1.75", got)
	}
}

func TestCheckTheorem1(t *testing.T) {
	if err := CheckTheorem1(0, 1, 3); err != nil {
		t.Errorf("Gtotal=0 rejected: %v", err)
	}
	if err := CheckTheorem1(2, 1, 3); err != nil {
		t.Errorf("Gtotal at the bound rejected: %v", err)
	}
	if err := CheckTheorem1(-1, 1, 3); err == nil {
		t.Error("negative Gtotal accepted")
	}
	if err := CheckTheorem1(3, 1, 3); err == nil {
		t.Error("Gtotal above the bound accepted")
	}
}

func TestCheckTheorem2(t *testing.T) {
	if err := CheckTheorem2(15, 10, 2); err != nil {
		t.Errorf("ratio 1.5 = bound for M=2 rejected: %v", err)
	}
	if err := CheckTheorem2(16, 10, 2); err == nil {
		t.Error("ratio 1.6 > 1.5 accepted")
	}
	if err := CheckTheorem2(10, 0, 2); err == nil {
		t.Error("zero optimum accepted")
	}
}

func TestAlphaRatio(t *testing.T) {
	r, err := AlphaRatio(12, 8)
	if err != nil || r != 1.5 {
		t.Errorf("AlphaRatio(12,8) = %v, %v", r, err)
	}
}

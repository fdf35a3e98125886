// Package analysis implements the paper's §5 theoretical performance
// study as executable checks: the Theorem 1 bound on the total gain and
// the Theorem 2 (2 − 1/M)-approximation ratio for memory usage, both of
// which the experiments verify empirically on random instances.
package analysis

import (
	"fmt"

	"repro/internal/model"
)

// Factorial returns n! (n ≤ 20 fits in int64; larger inputs saturate at
// the maximum Time to keep the bound meaningful rather than overflowing).
func Factorial(n int) model.Time {
	f := model.Time(1)
	for i := 2; i <= n; i++ {
		next := f * model.Time(i)
		if next/model.Time(i) != f { // overflow
			return model.Time(1)<<62 - 1
		}
		f = next
	}
	return f
}

// Theorem1Bound returns γ(M−1)!, the paper's stated upper bound on
// Gtotal, with γ the longest communication time that can be suppressed.
// The paper equates the number of distinct processor pairs with (M−1)!;
// the conventional count is M(M−1)/2 (they coincide for M ≤ 3, the
// regime of the worked example).
func Theorem1Bound(gamma model.Time, m int) model.Time {
	if m < 1 {
		return 0
	}
	return gamma * Factorial(m-1)
}

// AlphaBound returns 2 − 1/M, the Theorem 2 approximation guarantee.
func AlphaBound(m int) float64 {
	if m < 1 {
		return 0
	}
	return 2 - 1/float64(m)
}

// AlphaRatio returns ω/ωopt and an error when the optimum is
// non-positive (which would make the ratio meaningless).
func AlphaRatio(got, opt model.Mem) (float64, error) {
	if opt <= 0 {
		return 0, fmt.Errorf("analysis: non-positive optimum %d", opt)
	}
	return float64(got) / float64(opt), nil
}

// CheckTheorem1 verifies 0 ≤ gTotal ≤ γ(M−1)! and returns a descriptive
// error on violation.
func CheckTheorem1(gTotal, gamma model.Time, m int) error {
	if gTotal < 0 {
		return fmt.Errorf("analysis: Theorem 1 violated: Gtotal = %d < 0", gTotal)
	}
	if b := Theorem1Bound(gamma, m); gTotal > b {
		return fmt.Errorf("analysis: Theorem 1 violated: Gtotal = %d > γ(M−1)! = %d", gTotal, b)
	}
	return nil
}

// CheckTheorem2 verifies ω/ωopt ≤ 2 − 1/M (with a small epsilon for the
// float division) and returns a descriptive error on violation.
func CheckTheorem2(got, opt model.Mem, m int) error {
	ratio, err := AlphaRatio(got, opt)
	if err != nil {
		return err
	}
	if ratio > AlphaBound(m)+1e-9 {
		return fmt.Errorf("analysis: Theorem 2 violated: ω/ωopt = %.4f > 2−1/M = %.4f (ω=%d ωopt=%d M=%d)",
			ratio, AlphaBound(m), got, opt, m)
	}
	return nil
}

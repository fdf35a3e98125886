package model

// GCD returns the greatest common divisor of a and b. GCD(0, x) = x.
func GCD(a, b Time) Time {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of |a| and |b|. LCM(0, x) = 0.
func LCM(a, b Time) Time {
	if a == 0 || b == 0 {
		return 0
	}
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	return a / GCD(a, b) * b
}

// Harmonic reports whether a divides b or b divides a. The multi-rate data
// transfer semantics of the paper (fig. 1) is defined for harmonic period
// pairs only.
func Harmonic(a, b Time) bool {
	if a <= 0 || b <= 0 {
		return false
	}
	return a%b == 0 || b%a == 0
}

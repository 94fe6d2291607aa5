// Package intmath provides the integer arithmetic underlying block-cyclic
// address generation: Euclidean (floor-style, always-nonnegative-remainder)
// division, greatest common divisors, the extended Euclidean algorithm, and
// a solver for linear congruences.
//
// All routines operate on int64 and are deterministic. Where intermediate
// products could overflow (e.g. solving a·x ≡ b (mod n) with large a, n),
// the checked variants report an error instead of silently wrapping.
package intmath

import (
	"errors"
	"fmt"
)

// ErrOverflow is returned by checked arithmetic when a result does not fit
// in an int64.
var ErrOverflow = errors.New("intmath: arithmetic overflow")

// FloorDiv returns the quotient of a divided by b, rounded toward negative
// infinity. It panics if b == 0.
//
// Unlike Go's native division, which truncates toward zero,
// FloorDiv(-7, 2) == -4.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// FloorMod returns a - FloorDiv(a, b)*b. The result has the same sign as b
// (and is zero when b divides a). It panics if b == 0.
//
// For positive b this is the mathematician's "mod": the result lies in
// [0, b). FloorMod(-7, 32) == 25.
func FloorMod(a, b int64) int64 {
	r := a % b
	if r != 0 && ((r < 0) != (b < 0)) {
		r += b
	}
	return r
}

// CeilDiv returns the quotient of a divided by b, rounded toward positive
// infinity. It panics if b == 0.
func CeilDiv(a, b int64) int64 {
	return -FloorDiv(-a, b)
}

// Abs returns the absolute value of a. Abs(math.MinInt64) overflows and
// panics.
func Abs(a int64) int64 {
	if a == minInt64 {
		panic("intmath: Abs(math.MinInt64) overflows")
	}
	if a < 0 {
		return -a
	}
	return a
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// GCD returns the greatest common divisor of a and b. The result is always
// nonnegative; GCD(0, 0) == 0.
func GCD(a, b int64) int64 {
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

// LCM returns the least common multiple of a and b, or an error if the
// result overflows int64. LCM(0, x) == 0.
func LCM(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	g := GCD(a, b)
	q := Abs(a) / g
	return MulChecked(q, Abs(b))
}

// ExtGCD runs the extended Euclidean algorithm. It returns d = GCD(a, b)
// and Bézout coefficients x, y satisfying a·x + b·y = d.
//
// The coefficients follow the classical recursive construction (CLR
// Introduction to Algorithms, the paper's reference [5]): for a, b > 0 the
// returned x satisfies |x| ≤ b/(2d) and |y| ≤ a/(2d), so no intermediate
// value overflows when a and b fit in int64.
func ExtGCD(a, b int64) (d, x, y int64) {
	// Iterative form of the textbook recursion, tracking coefficient pairs.
	oldR, r := a, b
	oldX, xx := int64(1), int64(0)
	oldY, yy := int64(0), int64(1)
	for r != 0 {
		q := oldR / r
		oldR, r = r, oldR-q*r
		oldX, xx = xx, oldX-q*xx
		oldY, yy = yy, oldY-q*yy
	}
	d, x, y = oldR, oldX, oldY
	if d < 0 {
		d, x, y = -d, -x, -y
	}
	return d, x, y
}

// MulChecked returns a*b, or ErrOverflow if the product does not fit in an
// int64.
func MulChecked(a, b int64) (int64, error) {
	if a == 0 || b == 0 {
		return 0, nil
	}
	p := a * b
	if p/b != a || (a == minInt64 && b == -1) {
		return 0, fmt.Errorf("%w: %d * %d", ErrOverflow, a, b)
	}
	return p, nil
}

// AddChecked returns a+b, or ErrOverflow if the sum does not fit in an
// int64.
func AddChecked(a, b int64) (int64, error) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, fmt.Errorf("%w: %d + %d", ErrOverflow, a, b)
	}
	return s, nil
}

// MulMod returns (a*b) mod n with FloorMod semantics: the result lies in
// [0, n). It requires n > 0. Below n = 3 037 000 499 (√maxInt64) the
// reduced operands' product fits in an int64 and one % suffices; for
// larger moduli it falls back to Russian-peasant doubling, which never
// overflows but costs O(log n) steps.
func MulMod(a, b, n int64) int64 {
	if n <= 0 {
		panic("intmath: MulMod with nonpositive modulus")
	}
	a = FloorMod(a, n)
	b = FloorMod(b, n)
	if n < 3037000499 {
		return a * b % n
	}
	var acc int64
	for b > 0 {
		if b&1 == 1 {
			acc += a - n
			if acc < 0 {
				acc += n
			}
		}
		a += a - n
		if a < 0 {
			a += n
		}
		b >>= 1
	}
	return acc
}

// SolveCongruence finds the smallest nonnegative x with a·x ≡ c (mod n).
// It reports ok = false when the congruence has no solution, i.e. when
// GCD(a, n) does not divide c. It requires n > 0.
//
// This is the primitive behind the paper's "find the smallest positive j
// such that s·j ≡ i (mod pk)" step (Section 2).
func SolveCongruence(a, c, n int64) (x int64, ok bool) {
	if n <= 0 {
		panic("intmath: SolveCongruence with nonpositive modulus")
	}
	d, inv, _ := ExtGCD(a, n)
	if FloorMod(c, d) != 0 {
		return 0, false
	}
	nd := n / d
	// x ≡ (c/d)·inv (mod n/d); inv may be negative, c/d may be huge:
	// reduce both before multiplying.
	return MulMod(FloorMod(c, n)/d, inv, nd), true
}

// Package lattice implements the integer-lattice view of regular-section
// accesses under cyclic(k) distributions (paper, Sections 3 and 4).
//
// Fix a distribution with row length P = p·k and a section stride s. Treat
// each array element as a point in Z², x-axis = offset within the row,
// y-axis = row number. The section element with index i·s (taking lower
// bound 0) maps to the point
//
//	(b, a) with P·a + b = i·s,  0 ≤ b < P.
//
// Theorem 1: the set Λ = {(b, a) ∈ Z² : P·a + b = i·s for some i ∈ Z} is
// an integer lattice, independent of the section's lower bound.
//
// Section 4 constructs the special basis used for linear-time address
// generation: R = (b_r, a_r), the lattice point of the smallest positive
// section index whose offset b lies in (0, k), and L = (b_l, a_l), the
// point of the largest negative such index. Theorem 3: from any section
// element on a processor, the step to the next element on that processor
// is R, −L or R−L.
package lattice

import (
	"fmt"
	"iter"
	"math"

	"repro/internal/intmath"
)

// Point is a lattice point (B, A) with P·A + B = I·s. I is the section
// index multiplier that generated the point; for pure vectors (differences
// of points) I is the index difference.
type Point struct {
	B, A int64 // offset-within-row and row coordinates
	I    int64 // section index: P·A + B == I·s
}

// Add returns the component-wise sum of two points (valid because Λ is
// closed under addition).
func (pt Point) Add(q Point) Point {
	return Point{B: pt.B + q.B, A: pt.A + q.A, I: pt.I + q.I}
}

// Sub returns the component-wise difference of two points.
func (pt Point) Sub(q Point) Point {
	return Point{B: pt.B - q.B, A: pt.A - q.A, I: pt.I - q.I}
}

// Neg returns the negation of the point.
func (pt Point) Neg() Point {
	return Point{B: -pt.B, A: -pt.A, I: -pt.I}
}

// String implements fmt.Stringer.
func (pt Point) String() string {
	return fmt.Sprintf("(%d,%d)@i=%d", pt.B, pt.A, pt.I)
}

// Lattice is the integer lattice Λ of a (P, s) pair, where P = p·k is the
// distribution row length and s the section stride.
type Lattice struct {
	P int64 // row length p·k
	K int64 // block size (needed only for the R/L basis)
	S int64 // section stride, > 0
	D int64 // gcd(S, P)
	X int64 // Bézout coefficient: S·X + P·Y = D
}

// New constructs the lattice for row length p·k, block size k and stride
// s > 0.
func New(p, k, s int64) (*Lattice, error) {
	if p < 1 || k < 1 {
		return nil, fmt.Errorf("lattice: invalid distribution p=%d k=%d", p, k)
	}
	if s < 1 {
		return nil, fmt.Errorf("lattice: stride %d < 1 (normalize first)", s)
	}
	P, err := intmath.MulChecked(p, k)
	if err != nil {
		return nil, fmt.Errorf("lattice: p*k overflows: %v", err)
	}
	if _, err := intmath.MulChecked(P, s); err != nil {
		return nil, fmt.Errorf("lattice: p*k*s overflows: %v", err)
	}
	d, x, _ := intmath.ExtGCD(s, P)
	return &Lattice{P: P, K: k, S: s, D: d, X: x}, nil
}

// PointFor returns the lattice point of section index i: the unique (b, a)
// with P·a + b = i·S and 0 ≤ b < P.
func (l *Lattice) PointFor(i int64) Point {
	v := i * l.S
	return Point{
		B: intmath.FloorMod(v, l.P),
		A: intmath.FloorDiv(v, l.P),
		I: i,
	}
}

// Contains reports whether (b, a) is a lattice point, i.e. whether
// P·a + b is a multiple of S... more precisely whether some integer i has
// i·S = P·a + b, which holds iff S divides P·a + b.
func (l *Lattice) Contains(b, a int64) bool {
	return intmath.FloorMod(l.P*a+b, l.S) == 0
}

// SmallestIndexWithOffset returns the lattice point of the smallest
// nonnegative section index i whose offset coordinate (i·S mod P) equals
// b. ok is false when no such index exists, i.e. when gcd(S, P) ∤ b.
//
// This is the per-offset Diophantine solve of the paper's Section 2: the
// smallest j ≥ 0 with S·j ≡ b (mod P).
func (l *Lattice) SmallestIndexWithOffset(b int64) (Point, bool) {
	if intmath.FloorMod(b, l.D) != 0 {
		return Point{}, false
	}
	// j ≡ (b/D)·X (mod P/D); smallest nonnegative representative.
	nd := l.P / l.D
	j := intmath.MulMod(intmath.FloorMod(b, l.P)/l.D, l.X, nd)
	return l.PointFor(j), true
}

// IsBasis reports whether two lattice points form a basis of Λ. The
// necessary and sufficient condition (Section 3) is
// |a1·i2 − a2·i1| = 1.
func IsBasis(v1, v2 Point) bool {
	det := v1.A*v2.I - v2.A*v1.I
	return det == 1 || det == -1
}

// AnyBasis constructs some basis of Λ using the paper's Section 3 recipe:
// take (b1, a1) with i1 = 1 (so no lattice point lies strictly between the
// origin and it), then use the extended Euclid's algorithm to find a
// complement with a1·i2 − a2·i1 = ±1.
//
// The special case P | S, where the lattice is generated by a single
// vector, is reported via single = true (v2 is then the zero Point).
func (l *Lattice) AnyBasis() (v1, v2 Point, single bool) {
	v1 = l.PointFor(1)
	if intmath.FloorMod(l.S, l.P) == 0 {
		return v1, Point{}, true
	}
	// Need a2, i2 with a1·i2 − a2·i1 = 1, i1 = 1, a1 = S div P:
	// a1·i2 − a2 = 1  ⇔  a2 = a1·i2 − 1. Any i2 works; take i2 = 0.
	i2 := int64(0)
	a2 := v1.A*i2 - 1
	b2 := i2*l.S - l.P*a2
	return v1, Point{B: b2, A: a2, I: i2}, false
}

// Basis holds the R/L basis of Section 4 together with the derived
// local-memory gaps used by the access-sequence algorithms.
type Basis struct {
	R Point // smallest positive section index with offset in (0, K)
	L Point // largest negative section index with offset in (0, K); L.A < 0

	// GapR and GapL are the local-memory distances corresponding to a
	// move by R and by −L respectively: GapR = R.A·K + R.B and
	// GapL = −(L.A·K + L.B). Both are positive for K > 1.
	GapR, GapL int64
}

// Solvable yields, in ascending order, every solvable offset i of the
// window [lo, hi) — offsets counted from the section's lower bound, so
// the solvable ones are the multiples of D — together with j, the
// smallest nonnegative section index at that offset: the j in [0, P/D)
// with j·S ≡ i (mod P), that is j = ((i mod P)/D · X) mod P/D. This is the
// walk of Figure 5's start scan and basis scan, which Section 5 notes
// are "d offsets apart". Only the first j costs a multiplication
// mod P/D: consecutive solvable offsets have j(i+D) ≡ j(i) + X
// (mod P/D), including where i mod P wraps to 0 and j to 0, so every
// later step is one overflow-free addition and no division.
func (l *Lattice) Solvable(lo, hi int64) iter.Seq2[int64, int64] {
	return func(yield func(i, j int64) bool) {
		i := intmath.CeilDiv(lo, l.D) * l.D
		if i >= hi {
			return
		}
		nd := l.P / l.D
		xr := intmath.FloorMod(l.X, nd)
		j := intmath.MulMod(intmath.FloorMod(i, l.P)/l.D, xr, nd)
		for ; i < hi; i += l.D {
			if !yield(i, j) {
				return
			}
			if j >= nd-xr {
				j -= nd - xr
			} else {
				j += xr
			}
		}
	}
}

// RL constructs the R and L basis vectors by the O(k) scan of the paper's
// Figure 5, lines 19–30: over the solvable offsets in (0, K) compute the
// smallest positive section index per offset; the minimum index yields R
// and the maximum yields L (taken relative to the start of the next
// cycle, the point (0, S/D) of index P/D).
//
// ok is false when fewer than one solvable offset exists in (0, K) — the
// degenerate cases the algorithm special-cases (at most one access per
// row, AM table of length ≤ 1).
func (l *Lattice) RL() (Basis, bool) {
	minJ := int64(math.MaxInt64)
	maxJ := int64(0)
	for _, j := range l.Solvable(1, l.K) {
		minJ = min(minJ, j)
		maxJ = max(maxJ, j)
	}
	if maxJ == 0 {
		return Basis{}, false
	}
	minLoc, maxLoc := minJ*l.S, maxJ*l.S
	r := Point{
		B: intmath.FloorMod(minLoc, l.P),
		A: intmath.FloorDiv(minLoc, l.P),
		I: minJ,
	}
	lv := Point{
		B: intmath.FloorMod(maxLoc, l.P),
		A: intmath.FloorDiv(maxLoc, l.P) - l.S/l.D,
		I: maxJ - l.P/l.D,
	}
	return Basis{
		R:    r,
		L:    lv,
		GapR: r.A*l.K + r.B,
		GapL: -(lv.A*l.K + lv.B),
	}, true
}

// Verify checks the structural invariants of an R/L basis against the
// lattice: both are lattice points with offsets in (0, K), R has a
// positive index, L a negative one, and together they satisfy the basis
// determinant condition. It returns a descriptive error on the first
// violated invariant. Intended for tests and debugging.
func (l *Lattice) Verify(b Basis) error {
	check := func(pt Point, name string) error {
		if pt.A*l.P+pt.B != pt.I*l.S {
			return fmt.Errorf("lattice: %s = %v is not a lattice point for S=%d P=%d",
				name, pt, l.S, l.P)
		}
		if pt.B <= 0 || pt.B >= l.K {
			return fmt.Errorf("lattice: %s offset %d outside (0, %d)", name, pt.B, l.K)
		}
		return nil
	}
	if err := check(b.R, "R"); err != nil {
		return err
	}
	if err := check(b.L, "L"); err != nil {
		return err
	}
	if b.R.I <= 0 {
		return fmt.Errorf("lattice: R index %d not positive", b.R.I)
	}
	if b.L.I >= 0 {
		return fmt.Errorf("lattice: L index %d not negative", b.L.I)
	}
	if !IsBasis(b.R, b.L) {
		return fmt.Errorf("lattice: |R.A·L.I − L.A·R.I| ≠ 1 for R=%v L=%v", b.R, b.L)
	}
	if b.GapR != b.R.A*l.K+b.R.B {
		return fmt.Errorf("lattice: GapR %d inconsistent with R=%v", b.GapR, b.R)
	}
	if b.GapL != -(b.L.A*l.K + b.L.B) {
		return fmt.Errorf("lattice: GapL %d inconsistent with L=%v", b.GapL, b.L)
	}
	return nil
}

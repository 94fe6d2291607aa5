// Package section models Fortran-90 regular sections (subscript triplets)
// l:u:s — the arithmetic index sequences that data-parallel loops traverse
// (paper, Section 2).
//
// A Section is the ordered index sequence l, l+s, l+2s, … bounded by u
// (inclusive, in the Fortran style). Strides may be negative, in which case
// the sequence descends; a section whose bounds and stride disagree is
// empty. Zero strides are invalid.
package section

import (
	"fmt"
	"iter"

	"repro/internal/intmath"
)

// Section is a regular section l:u:s with inclusive bounds. Construct with
// New to validate the stride.
type Section struct {
	Lo, Hi, Stride int64
}

// New returns the section lo:hi:stride. It rejects stride == 0.
func New(lo, hi, stride int64) (Section, error) {
	if stride == 0 {
		return Section{}, fmt.Errorf("section: zero stride in %d:%d:0", lo, hi)
	}
	return Section{Lo: lo, Hi: hi, Stride: stride}, nil
}

// MustNew is New but panics on invalid arguments.
func MustNew(lo, hi, stride int64) Section {
	s, err := New(lo, hi, stride)
	if err != nil {
		panic(err)
	}
	return s
}

// String renders the section in triplet notation.
func (s Section) String() string {
	return fmt.Sprintf("%d:%d:%d", s.Lo, s.Hi, s.Stride)
}

// Count returns the number of elements in the section: max(0,
// floor((hi-lo)/stride) + 1).
func (s Section) Count() int64 {
	d := s.Hi - s.Lo
	if (s.Stride > 0 && d < 0) || (s.Stride < 0 && d > 0) {
		return 0
	}
	return intmath.FloorDiv(d, s.Stride) + 1
}

// Empty reports whether the section contains no elements.
func (s Section) Empty() bool { return s.Count() == 0 }

// Element returns the j-th element of the section, lo + j·stride. It does
// not check bounds; callers index with 0 ≤ j < Count().
func (s Section) Element(j int64) int64 {
	return s.Lo + j*s.Stride
}

// Last returns the final element of a non-empty section.
func (s Section) Last() int64 {
	return s.Element(s.Count() - 1)
}

// Contains reports whether global index i is an element of the section.
func (s Section) Contains(i int64) bool {
	d := i - s.Lo
	if intmath.FloorMod(d, s.Stride) != 0 {
		return false
	}
	j := intmath.FloorDiv(d, s.Stride)
	return j >= 0 && j < s.Count()
}

// IndexOf returns the position j with Element(j) == i, or -1 when i is not
// an element of the section.
func (s Section) IndexOf(i int64) int64 {
	if !s.Contains(i) {
		return -1
	}
	return intmath.FloorDiv(i-s.Lo, s.Stride)
}

// Ascending returns an equivalent element set with positive stride: for a
// descending section it reverses the traversal order. The paper treats
// negative strides "analogously" (Section 2); Ascending is that reduction.
// Reversed reports whether the order was flipped.
func (s Section) Ascending() (asc Section, reversed bool) {
	if s.Stride > 0 {
		return s, false
	}
	n := s.Count()
	if n == 0 {
		return Section{Lo: s.Lo, Hi: s.Lo - 1, Stride: -s.Stride}, true
	}
	return Section{Lo: s.Last(), Hi: s.Lo, Stride: -s.Stride}, true
}

// All iterates the elements of the section in traversal order.
func (s Section) All() iter.Seq2[int64, int64] {
	return func(yield func(j, elem int64) bool) {
		n := s.Count()
		for j := int64(0); j < n; j++ {
			if !yield(j, s.Element(j)) {
				return
			}
		}
	}
}

// Slice materializes the section's elements. Intended for tests and small
// sections.
func (s Section) Slice() []int64 {
	n := s.Count()
	out := make([]int64, 0, n)
	for j := int64(0); j < n; j++ {
		out = append(out, s.Element(j))
	}
	return out
}

// ClampTo restricts the section to elements within [lo, hi] (inclusive),
// preserving stride and phase. The result is empty if no elements fall in
// the range.
func (s Section) ClampTo(lo, hi int64) Section {
	asc, rev := s.Ascending()
	if asc.Empty() {
		return s
	}
	newLo := asc.Lo
	if newLo < lo {
		// advance to the first element >= lo
		steps := intmath.CeilDiv(lo-asc.Lo, asc.Stride)
		newLo = asc.Lo + steps*asc.Stride
	}
	newHi := asc.Hi
	if newHi > hi {
		newHi = hi
	}
	out := Section{Lo: newLo, Hi: newHi, Stride: asc.Stride}
	if out.Empty() {
		return Section{Lo: 0, Hi: -1, Stride: s.Stride}
	}
	if rev {
		// flip back to descending order
		return Section{Lo: out.Last(), Hi: out.Lo, Stride: -out.Stride}
	}
	// tighten Hi to the true last element so String() is canonical
	out.Hi = out.Last()
	return out
}

// Shift translates every element by delta, preserving stride and order.
func (s Section) Shift(delta int64) Section {
	return Section{Lo: s.Lo + delta, Hi: s.Hi + delta, Stride: s.Stride}
}

// Scale maps every element i to a·i (a != 0), as an affine alignment does.
// For negative a the traversal direction flips sign with the stride.
func (s Section) Scale(a int64) Section {
	if a == 0 {
		panic("section: Scale by zero")
	}
	return Section{Lo: s.Lo * a, Hi: s.Hi * a, Stride: s.Stride * a}
}

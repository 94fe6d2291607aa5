// Package dist models HPF-style data distributions of one-dimensional
// index spaces (templates) over processors.
//
// The central type is Layout, a cyclic(k) distribution over p processors:
// the template is cut into contiguous blocks of k cells which are dealt to
// processors round-robin. HPF's block and cyclic distributions are the
// special cases cyclic(ceil(n/p)) and cyclic(1) (paper, Section 1).
//
// Visualizing the template as a matrix with rows of p·k cells (paper,
// Figure 1), a global index i decomposes into
//
//	row    = i div pk   (which course of blocks)
//	owner  = (i mod pk) div k
//	offset = i mod k    (position within its block)
//
// and the element lives at local address row·k + offset in its owner's
// memory, assuming the owner packs its blocks contiguously.
package dist

import (
	"fmt"

	"repro/internal/intmath"
)

// Layout is a one-dimensional cyclic(k) distribution over P processors.
// The zero value is not valid; use New.
type Layout struct {
	p, k int64
	pk   int64 // p*k, the row length
}

// New returns the cyclic(k) layout over p processors. It validates that
// p ≥ 1, k ≥ 1 and that p·k does not overflow.
func New(p, k int64) (Layout, error) {
	if p < 1 {
		return Layout{}, fmt.Errorf("dist: processor count %d < 1", p)
	}
	if k < 1 {
		return Layout{}, fmt.Errorf("dist: block size %d < 1", k)
	}
	pk, err := intmath.MulChecked(p, k)
	if err != nil {
		return Layout{}, fmt.Errorf("dist: p*k overflows: %w", err)
	}
	return Layout{p: p, k: k, pk: pk}, nil
}

// MustNew is New but panics on invalid arguments. Intended for tests,
// examples and compile-time-constant layouts.
func MustNew(p, k int64) Layout {
	l, err := New(p, k)
	if err != nil {
		panic(err)
	}
	return l
}

// Block returns the HPF block distribution of an n-cell template over p
// processors, i.e. cyclic(ceil(n/p)).
func Block(p, n int64) (Layout, error) {
	if n < 1 {
		return Layout{}, fmt.Errorf("dist: template size %d < 1", n)
	}
	if p < 1 {
		return Layout{}, fmt.Errorf("dist: processor count %d < 1", p)
	}
	return New(p, intmath.CeilDiv(n, p))
}

// Cyclic returns the HPF cyclic distribution over p processors, i.e.
// cyclic(1).
func Cyclic(p int64) (Layout, error) { return New(p, 1) }

// P returns the number of processors.
func (l Layout) P() int64 { return l.p }

// K returns the block size.
func (l Layout) K() int64 { return l.k }

// RowLen returns p·k, the number of template cells per course of blocks.
func (l Layout) RowLen() int64 { return l.pk }

// String implements fmt.Stringer.
func (l Layout) String() string {
	return fmt.Sprintf("cyclic(%d) over %d procs", l.k, l.p)
}

// Owner returns the processor owning global index i (i ≥ 0).
func (l Layout) Owner(i int64) int64 {
	return intmath.FloorMod(i, l.pk) / l.k
}

// Row returns the row (block course) of global index i, i.e. the index of
// the block holding i within its owner's local memory.
func (l Layout) Row(i int64) int64 {
	return intmath.FloorDiv(i, l.pk)
}

// Offset returns the offset of global index i within its block, in [0, k).
func (l Layout) Offset(i int64) int64 {
	return intmath.FloorMod(i, l.k)
}

// RowOffset returns the position of global index i within its row, in
// [0, pk). The paper calls this "i mod pk".
func (l Layout) RowOffset(i int64) int64 {
	return intmath.FloorMod(i, l.pk)
}

// Local returns the local memory address of global index i on its owning
// processor: row·k + offset.
func (l Layout) Local(i int64) int64 {
	return l.Row(i)*l.k + l.Offset(i)
}

// Global returns the global index of local address a on processor m. It is
// the inverse of Local restricted to indices owned by m.
func (l Layout) Global(m, a int64) int64 {
	return (a/l.k)*l.pk + m*l.k + a%l.k
}

// Owns reports whether processor m owns global index i.
func (l Layout) Owns(m, i int64) bool {
	return l.Owner(i) == m
}

// Within returns a layout that gives every index in [0, n) the owner and
// local address l gives it, with a block of at most n cells: when
// k > n ≥ 1, all of [0, n) lies in rank 0's first block at local address
// i under cyclic(k) and cyclic(n) alike, so anything built from
// cyclic(n)'s row costs O(n) where cyclic(k)'s costs O(k). p·n fits,
// being below the p·k that New accepted.
func (l Layout) Within(n int64) Layout {
	if n < 1 || l.k <= n {
		return l
	}
	return Layout{p: l.p, k: n, pk: l.p * n}
}

// LocalCount returns the number of global indices in [0, n) owned by
// processor m — the size of m's local array segment for an n-cell template.
func (l Layout) LocalCount(m, n int64) int64 {
	if n <= 0 {
		return 0
	}
	fullRows := n / l.pk
	count := fullRows * l.k
	rem := n % l.pk // leftover cells [fullRows*pk, n) occupy row-offsets [0, rem)
	lo := m * l.k
	switch {
	case rem <= lo:
		// no leftover cells reach m's block in the last row
	case rem >= lo+l.k:
		count += l.k
	default:
		count += rem - lo
	}
	return count
}

// Coords returns the full (row, owner, offset) decomposition of global
// index i.
func (l Layout) Coords(i int64) (row, owner, offset int64) {
	return l.Row(i), l.Owner(i), l.Offset(i)
}

// BlockStart returns the smallest global index of the b-th block owned by
// processor m (b = row number).
func (l Layout) BlockStart(m, b int64) int64 {
	return b*l.pk + m*l.k
}

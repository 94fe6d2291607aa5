// Package core computes local memory access sequences for regular array
// sections under cyclic(k) distributions — the subject of Kennedy,
// Nedeljković & Sethi (PPOPP'95).
//
// Given an array distributed cyclic(k) over p processors and a section
// l:u:s, every processor m owns a subsequence of the section's elements.
// Enumerated in increasing global-index order, the distances between the
// local memory addresses of consecutive owned elements form a cyclic
// sequence of period at most k: the AM table (or "memory gap" table). Node
// code uses the table to stream through local memory without computing
// global addresses.
//
// Three algorithms construct the table:
//
//   - Lattice — the paper's contribution, O(k + min(log s, log p)), based
//     on the integer-lattice basis of package lattice (Figure 5).
//   - Sorting — the baseline of Chatterjee, Gilbert, Long, Schreiber &
//     Teng (PPoPP'93), O(k log k) from sorting the first cycle of accesses.
//   - Hiranandani — the special-case O(k) method of Hiranandani, Kennedy,
//     Mellor-Crummey & Sethi (ICS'94), valid only when s mod pk < k.
//
// All three produce identical tables. A brute-force Enumerate oracle and a
// table-free Walker (Section 6.2's space/time trade-off) round out the
// API. The table is independent of the section's upper bound u; bounds
// enter only through Count, Last and Addresses.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/intmath"
	"repro/internal/lattice"
)

// Problem identifies one access-sequence computation: the distribution
// (P processors, block size K), the section lower bound L and stride S,
// and the processor M whose sequence is wanted.
//
// S must be positive; negative strides are normalized by the caller (see
// section.Ascending). L must be nonnegative: it is an array index, and
// HPF arrays are indexed from 0 (a negative Start would also be
// indistinguishable from the empty-sequence sentinel).
type Problem struct {
	P, K int64 // distribution parameters: p processors, cyclic(K)
	L, S int64 // regular section lower bound and stride (S > 0)
	M    int64 // processor number, 0 ≤ M < P
}

// Validate checks the problem parameters. All algorithms call it.
func (pr Problem) Validate() error {
	if pr.P < 1 {
		return fmt.Errorf("core: processor count %d < 1", pr.P)
	}
	if pr.K < 1 {
		return fmt.Errorf("core: block size %d < 1", pr.K)
	}
	if pr.S < 1 {
		return fmt.Errorf("core: stride %d < 1 (normalize negative strides first)", pr.S)
	}
	if pr.M < 0 || pr.M >= pr.P {
		return fmt.Errorf("core: processor %d outside [0, %d)", pr.M, pr.P)
	}
	if pr.L < 0 {
		return fmt.Errorf("core: lower bound %d < 0 (array indices start at 0)", pr.L)
	}
	pk, err := intmath.MulChecked(pr.P, pr.K)
	if err != nil {
		return fmt.Errorf("core: p*k overflows: %v", err)
	}
	pks, err := intmath.MulChecked(pk, pr.S)
	if err != nil {
		return fmt.Errorf("core: p*k*s overflows: %v", err)
	}
	if _, err := intmath.AddChecked(pr.L, pks); err != nil {
		return fmt.Errorf("core: l + p*k*s overflows: %v", err)
	}
	return nil
}

// Sequence is the result of an access-sequence computation.
//
// Start is the global index of the first section element on processor M
// (the smallest element of the unbounded section L, L+S, … owned by M), or
// -1 when M owns no elements. StartLocal is its local memory address.
// Gaps is the AM table: Gaps[t] is the local-memory distance from the
// t-th owned element to the (t+1)-th; the table is cyclic, so element
// n's address is StartLocal + sum of Gaps[(0..n-1) mod len].
type Sequence struct {
	Start      int64
	StartLocal int64
	Gaps       []int64
}

// Length returns the period of the access pattern, len(Gaps).
func (s Sequence) Length() int { return len(s.Gaps) }

// Empty reports whether the processor owns no section elements.
func (s Sequence) Empty() bool { return s.Start < 0 }

// Address returns the local memory address of the n-th owned element
// (n ≥ 0), by walking the cyclic gap table.
func (s Sequence) Address(n int64) int64 {
	if s.Empty() {
		panic("core: Address on empty sequence")
	}
	addr := s.StartLocal
	if len(s.Gaps) == 0 {
		if n == 0 {
			return addr
		}
		panic("core: Address beyond single element")
	}
	period := int64(len(s.Gaps))
	var cycleSum int64
	for _, g := range s.Gaps {
		cycleSum += g
	}
	addr += (n / period) * cycleSum
	for t := int64(0); t < n%period; t++ {
		addr += s.Gaps[t]
	}
	return addr
}

// startScan computes the starting location for processor M and the AM
// table length (the number of solvable offset equations), shared verbatim
// between the Lattice and Sorting methods as in the paper's Section 6.1.
// When collect is non-nil it additionally appends every per-offset
// smallest index (the Sorting method's input). d and x come from the
// extended Euclid's algorithm on (S, pk).
func (pr Problem) startScan(pk, d, x int64, collect *[]int64) (start int64, length int64) {
	start = math.MaxInt64
	lo := pr.K*pr.M - pr.L
	for _, j := range problemLattice(pr, pk, d, x).Solvable(lo, lo+pr.K) {
		loc := pr.L + j*pr.S
		start = min(start, loc)
		length++
		if collect != nil {
			*collect = append(*collect, loc)
		}
	}
	if length == 0 {
		start = -1
	}
	return start, length
}

// localAddr maps a global index to its local memory address under the
// problem's distribution (row·K + offset).
func (pr Problem) localAddr(g, pk int64) int64 {
	return intmath.FloorDiv(g, pk)*pr.K + intmath.FloorMod(g, pr.K)
}

// problemLattice builds the lattice for a validated problem, reusing the
// already-computed extended-Euclid results.
func problemLattice(pr Problem, pk, d, x int64) *lattice.Lattice {
	return &lattice.Lattice{P: pk, K: pr.K, S: pr.S, D: d, X: x}
}

// Lattice computes the access sequence with the paper's linear-time
// algorithm (Figure 5): O(k + min(log s, log p)) time, O(k) space for the
// result.
func Lattice(pr Problem) (Sequence, error) {
	return latticeImpl(pr, nil)
}

// Visit records one step of the Figure 5 gap loop for tracing: the global
// index of the point examined and whether it was accepted as the next
// element on the processor (Eq 1/2) or stepped through out of range
// (the Eq 3 adjustment).
type Visit struct {
	Index    int64
	OnProc   bool
	Equation int // 1, 2 or 3, per the paper's equations
}

// LatticeTrace is Lattice but additionally returns the points visited by
// the gap loop, for reproducing the paper's Figure 6. The trace includes
// at most 2k+1 visits (Section 5.1's bound).
func LatticeTrace(pr Problem) (Sequence, []Visit, error) {
	var trace []Visit
	seq, err := latticeImpl(pr, &trace)
	return seq, trace, err
}

func latticeImpl(pr Problem, trace *[]Visit) (Sequence, error) {
	if err := pr.Validate(); err != nil {
		return Sequence{}, err
	}
	pk := pr.P * pr.K
	d, x, _ := intmath.ExtGCD(pr.S, pk)

	// Lines 4-11: starting location and table length.
	start, length := pr.startScan(pk, d, x, nil)

	// Lines 12-18: special cases.
	switch length {
	case 0:
		return Sequence{Start: -1}, nil
	case 1:
		return Sequence{
			Start:      start,
			StartLocal: pr.localAddr(start, pk),
			Gaps:       []int64{pr.K * pr.S / d},
		}, nil
	}

	// Lines 19-30: basis vectors R and L (independent of L and M).
	lat := problemLattice(pr, pk, d, x)
	basis, ok := lat.RL()
	if !ok {
		// Unreachable: length ≥ 2 implies at least two solvable offsets in
		// a k-window, hence d < k and a basis exists.
		return Sequence{}, errors.New("core: internal: no basis despite length > 1")
	}
	br, bl := basis.R.B, basis.L.B
	gapR, gapL := basis.GapR, basis.GapL

	// Lines 31-49: the gap table.
	gaps := make([]int64, length)
	offset := intmath.FloorMod(start, pk)
	lo, hi := pr.K*pr.M, pr.K*(pr.M+1)
	g := start // tracked only for tracing
	i := int64(0)
	for i < length {
		for i < length && offset+br < hi {
			gaps[i] = gapR // Equation 1
			offset += br
			i++
			if trace != nil {
				g += basis.R.I * pr.S
				*trace = append(*trace, Visit{Index: g, OnProc: true, Equation: 1})
			}
		}
		if i == length {
			break
		}
		gaps[i] = gapL // Equation 2
		offset -= bl
		if trace != nil {
			g -= basis.L.I * pr.S
			onProc := offset >= lo
			*trace = append(*trace, Visit{Index: g, OnProc: onProc, Equation: 2})
		}
		if offset < lo {
			gaps[i] += gapR // Equation 3
			offset += br
			if trace != nil {
				g += basis.R.I * pr.S
				*trace = append(*trace, Visit{Index: g, OnProc: true, Equation: 3})
			}
		}
		i++
	}
	return Sequence{
		Start:      start,
		StartLocal: pr.localAddr(start, pk),
		Gaps:       gaps,
	}, nil
}

// Vectors returns the R/L basis for the problem's distribution and stride
// (independent of L and M), for callers that generate addresses without
// tables (Section 6.2, reference [12]). ok is false in the degenerate
// cases where the AM table has length ≤ 1 on every processor.
func Vectors(p, k, s int64) (basis lattice.Basis, ok bool, err error) {
	pr := Problem{P: p, K: k, S: s}
	pr.M = 0
	if err := pr.Validate(); err != nil {
		return lattice.Basis{}, false, err
	}
	lat, err := lattice.New(p, k, s)
	if err != nil {
		return lattice.Basis{}, false, err
	}
	basis, ok = lat.RL()
	return basis, ok, nil
}

package core

import (
	"fmt"

	"repro/internal/intmath"
)

// Count returns the number of elements of the bounded section L:u:S owned
// by processor M. The AM table itself is independent of the upper bound
// (Section 2); bounds enter only here and in Last/Addresses.
func (pr Problem) Count(u int64) (int64, error) {
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	if u < pr.L {
		return 0, nil
	}
	n := (u-pr.L)/pr.S + 1 // total section elements
	pk := pr.P * pr.K
	d, x, _ := intmath.ExtGCD(pr.S, pk)
	nd := pk / d
	lo := pr.K*pr.M - pr.L
	var count int64
	for i := intmath.CeilDiv(lo, d) * d; i < lo+pr.K; i += d {
		j0 := intmath.MulMod(intmath.FloorMod(i, pk)/d, x, nd)
		if j0 < n {
			count += (n-1-j0)/nd + 1
		}
	}
	return count, nil
}

// Last returns the global index of the largest element of the bounded
// section L:u:S owned by processor M, or -1 when M owns none. Mirrors the
// paper's remark that the upper bound "is only used to find the last
// location for each processor".
func (pr Problem) Last(u int64) (int64, error) {
	if err := pr.Validate(); err != nil {
		return 0, err
	}
	if u < pr.L {
		return -1, nil
	}
	n := (u-pr.L)/pr.S + 1
	pk := pr.P * pr.K
	d, x, _ := intmath.ExtGCD(pr.S, pk)
	nd := pk / d
	lo := pr.K*pr.M - pr.L
	last := int64(-1)
	for i := intmath.CeilDiv(lo, d) * d; i < lo+pr.K; i += d {
		j0 := intmath.MulMod(intmath.FloorMod(i, pk)/d, x, nd)
		if j0 >= n {
			continue
		}
		j := j0 + (n-1-j0)/nd*nd
		if g := pr.L + j*pr.S; g > last {
			last = g
		}
	}
	return last, nil
}

// Addresses returns the local memory addresses (in increasing global-index
// order) of all elements of the bounded section L:u:S owned by processor
// M, computed by walking the cyclic AM table from the start location.
func (pr Problem) Addresses(u int64) ([]int64, error) {
	n, err := pr.Count(u)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	seq, err := Lattice(pr)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	addr := seq.StartLocal
	for t := int64(0); t < n; t++ {
		out[t] = addr
		if len(seq.Gaps) > 0 {
			addr += seq.Gaps[t%int64(len(seq.Gaps))]
		}
	}
	return out, nil
}

// Enumerate is the brute-force oracle: it walks the section element by
// element, filters by ownership, and derives the access sequence directly
// from the definition. It is O(pk/gcd(s,pk)) — far slower than Lattice —
// and exists to validate the fast algorithms in tests.
func Enumerate(pr Problem) (Sequence, error) {
	if err := pr.Validate(); err != nil {
		return Sequence{}, err
	}
	pk := pr.P * pr.K
	d := intmath.GCD(pr.S, pk)
	nd := pk / d // section steps per cycle

	// Collect owned elements over one full cycle plus the first element of
	// the next cycle; their local-address differences are the AM table.
	var owned []int64
	var firstJ int64 = -1
	for j := int64(0); ; j++ {
		g := pr.L + j*pr.S
		if intmath.FloorMod(g, pk)/pr.K == pr.M {
			if firstJ < 0 {
				firstJ = j
			}
			owned = append(owned, g)
		}
		if firstJ >= 0 && j >= firstJ+nd {
			break
		}
		if firstJ < 0 && j > nd {
			// No owned element in a full period: M owns nothing.
			return Sequence{Start: -1}, nil
		}
	}
	start := owned[0]
	gaps := make([]int64, 0, len(owned)-1)
	for t := 0; t+1 < len(owned); t++ {
		gaps = append(gaps, pr.localAddr(owned[t+1], pk)-pr.localAddr(owned[t], pk))
	}
	return Sequence{
		Start:      start,
		StartLocal: pr.localAddr(start, pk),
		Gaps:       gaps,
	}, nil
}

// Equal reports whether two sequences describe the same access pattern.
func (s Sequence) Equal(o Sequence) bool {
	if s.Start != o.Start || s.StartLocal != o.StartLocal || len(s.Gaps) != len(o.Gaps) {
		return false
	}
	for i := range s.Gaps {
		if s.Gaps[i] != o.Gaps[i] {
			return false
		}
	}
	return true
}

// String renders the sequence compactly for diagnostics.
func (s Sequence) String() string {
	if s.Empty() {
		return "core.Sequence{empty}"
	}
	return fmt.Sprintf("core.Sequence{start=%d local=%d AM=%v}", s.Start, s.StartLocal, s.Gaps)
}

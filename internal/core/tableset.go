package core

import (
	"fmt"
	"math"

	"repro/internal/intmath"
	"repro/internal/lattice"
)

// TableSet amortizes AM-table construction across all processors of one
// (p, k, l, s) configuration — the compile-time scenario of Section 6.1:
// "If input parameters p, k, l, and s for our algorithm are compile-time
// constants, then the compiler could compute the table of memory gaps for
// each processor. In that case the code that computes the basis vectors R
// and L would have to be executed only once."
//
// The key structural fact is that the Figure 5 gap decision depends on
// the element's offset only RELATIVE to its block: Equation 1 tests
// (offset − km) + b_r < k and Equation 3 tests (offset − km) − b_l < 0.
// So one offset-indexed transition table (gap and successor per local
// offset) serves every processor; per processor only the start location
// remains to be computed. When gcd(s, pk) = 1 the transition graph is a
// single k-cycle, making the processors' AM tables cyclic shifts of one
// another — the paper's closing observation in Section 6.1.
type TableSet struct {
	p, k, l, s int64
	pk, d, x   int64

	// Shared transition table, indexed by local offset in [0, k); valid
	// only when the general case applies (maxLen > 1).
	delta []int64
	next  []int64

	// singleGap holds k·s/d for the length ≤ 1 special cases.
	singleGap int64
	general   bool
}

// NewTableSet validates the configuration and computes everything that is
// processor independent: the extended Euclid results, the R/L basis and
// the shared transition table. O(k + min(log s, log p)) once.
func NewTableSet(p, k, l, s int64) (*TableSet, error) {
	pr := Problem{P: p, K: k, L: l, S: s, M: 0}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	pk := p * k
	d, x, _ := intmath.ExtGCD(s, pk)
	ts := &TableSet{
		p: p, k: k, l: l, s: s,
		pk: pk, d: d, x: x,
		singleGap: k * s / d,
	}
	lat := problemLattice(pr, pk, d, x)
	basis, ok := lat.RL()
	if !ok {
		// Degenerate configuration: every processor's table has length <= 1.
		return ts, nil
	}
	ts.general = true
	ts.delta = make([]int64, k)
	ts.next = make([]int64, k)
	br, bl := basis.R.B, basis.L.B
	for o := int64(0); o < k; o++ {
		if o+br < k {
			ts.delta[o] = basis.GapR // Equation 1
			ts.next[o] = o + br
			continue
		}
		gap := basis.GapL // Equation 2
		n := o - bl
		if n < 0 {
			gap += basis.GapR // Equation 3
			n += br
		}
		ts.delta[o] = gap
		ts.next[o] = n
	}
	return ts, nil
}

// Sequence returns processor m's access sequence, identical to
// Lattice(Problem{...M: m}) but reusing the shared tables: only the O(k)
// start scan runs per processor.
func (ts *TableSet) Sequence(m int64) (Sequence, error) {
	return ts.SequenceInto(m, nil)
}

// SequenceInto is Sequence writing the gap table into buf's storage
// (buf's length is ignored; its capacity is reused and grown as needed).
// The returned Sequence's Gaps alias buf, so callers own exactly one
// live copy — the allocation-free variant for hot loops that rebuild
// sequences into scratch buffers.
func (ts *TableSet) SequenceInto(m int64, buf []int64) (Sequence, error) {
	if m < 0 || m >= ts.p {
		return Sequence{}, fmt.Errorf("core: processor %d outside [0, %d)", m, ts.p)
	}
	pr := Problem{P: ts.p, K: ts.k, L: ts.l, S: ts.s, M: m}
	start, length := pr.startScan(ts.pk, ts.d, ts.x, nil)
	switch length {
	case 0:
		return Sequence{Start: -1}, nil
	case 1:
		buf = append(buf[:0], ts.singleGap)
		return Sequence{
			Start:      start,
			StartLocal: pr.localAddr(start, ts.pk),
			Gaps:       buf,
		}, nil
	}
	gaps := sizedGaps(buf, length)
	o := intmath.FloorMod(start, ts.k)
	for i := range gaps {
		gaps[i] = ts.delta[o]
		o = ts.next[o]
	}
	return Sequence{
		Start:      start,
		StartLocal: pr.localAddr(start, ts.pk),
		Gaps:       gaps,
	}, nil
}

// sizedGaps returns buf resized to length, reusing its capacity when
// possible.
func sizedGaps(buf []int64, length int64) []int64 {
	if int64(cap(buf)) >= length {
		return buf[:length]
	}
	return make([]int64, length)
}

// All returns every processor's sequence, built by the same single pass
// as Spans. The gap tables are read-only windows into one shared buffer.
func (ts *TableSet) All() ([]Sequence, error) {
	spans := ts.spans(0)
	out := make([]Sequence, len(spans))
	for m := range spans {
		out[m] = spans[m].Sequence
	}
	return out, nil
}

// Span is one processor's access sequence together with its extent in a
// bounded section l:u:s: Count owned elements, the last at global index
// Last (-1 when Count is 0). The embedded Sequence is the unbounded one
// that Sequence(m) returns; its Gaps is a read-only window into storage
// shared by every span of the call.
type Span struct {
	Sequence
	Count, Last int64
}

// Spans returns every processor's span for upper bound u in one pass —
// Section 6.1's "only the starting locations for all the processors need
// to be found". Per processor it walks the solvable offsets once with
// lattice.Solvable: one multiplication mod pk/d, then one addition per
// offset. With n = Q·(pk/d) + R section elements, the offset whose
// smallest index is j₀ owns Q + [j₀ < R] of them, so no division runs
// per offset. Count and Last agree with
// Problem.Count and Problem.Last, which remain the independent
// per-processor oracle.
//
// Every transition cycle a processor starts on is laid out twice in a
// row in one buffer, so each gap table is a zero-copy window starting at
// its start offset: O(k) work per call on top of the O(pk/d) scans.
func (ts *TableSet) Spans(u int64) []Span {
	var n int64
	if u >= ts.l {
		n = (u-ts.l)/ts.s + 1
	}
	return ts.spans(n)
}

// spans is Spans for a section of n elements.
func (ts *TableSet) spans(n int64) []Span {
	out := make([]Span, ts.p)
	lat := lattice.Lattice{P: ts.pk, K: ts.k, S: ts.s, D: ts.d, X: ts.x}
	nd := ts.pk / ts.d
	q, r := n/nd, n%nd
	// cyc[0] is the length-1 table every single-offset processor shares;
	// cycles are appended after it, each twice, and pos[o]-1 is the
	// index of offset o's first copy (0 while o is not laid out).
	var cyc, pos []int64
	if ts.general {
		cyc = make([]int64, 1, 1+2*ts.k)
		pos = make([]int64, ts.k)
	} else {
		cyc = make([]int64, 1)
	}
	cyc[0] = ts.singleGap
	for m := range out {
		lo := ts.k*int64(m) - ts.l
		minJ, maxJ, maxBelow := int64(math.MaxInt64), int64(-1), int64(-1)
		var length, below int64
		for _, j := range lat.Solvable(lo, lo+ts.k) {
			minJ, maxJ = min(minJ, j), max(maxJ, j)
			if j < r {
				below++
				maxBelow = max(maxBelow, j)
			}
			length++
		}
		if length == 0 {
			out[m] = Span{Sequence: Sequence{Start: -1}, Last: -1}
			continue
		}
		start := ts.l + minJ*ts.s
		sp := Span{
			Sequence: Sequence{Start: start, StartLocal: Problem{K: ts.k}.localAddr(start, ts.pk)},
			Count:    length*q + below,
			Last:     -1,
		}
		switch {
		case below > 0:
			sp.Last = ts.l + (maxBelow+q*nd)*ts.s
		case q > 0:
			sp.Last = ts.l + (maxJ+(q-1)*nd)*ts.s
		}
		if length == 1 {
			sp.Gaps = cyc[0:1:1]
		} else {
			o := intmath.FloorMod(start, ts.k)
			if pos[o] == 0 {
				cyc = appendCycle(cyc, pos, ts.delta, ts.next, o, length)
			}
			a := pos[o] - 1
			sp.Gaps = cyc[a : a+length : a+length]
		}
		out[m] = sp
	}
	return out
}

// appendCycle appends the length-long transition cycle through offset o
// to cyc twice in a row, recording each offset's first position in pos.
func appendCycle(cyc, pos, delta, next []int64, o, length int64) []int64 {
	base := int64(len(cyc))
	for t := int64(0); t < length; t++ {
		pos[o] = base + t + 1
		cyc = append(cyc, delta[o])
		o = next[o]
	}
	return append(cyc, cyc[base:]...)
}

// Transitions exposes the shared offset-indexed transition table: delta[o]
// is the local memory gap from an element at local offset o, next[o] the
// offset of the successor element. Both slices are indexed by local offset
// in [0, k) and are shared, read-only state — callers must not modify
// them. ok is false in the degenerate configurations (every processor's
// table has length ≤ 1), where no transition table exists.
//
// This is the Figure 8(d) table pair in its processor-independent form:
// per processor only the start offset (start mod k) differs, so one pair
// serves every processor of the configuration (Section 6.1).
func (ts *TableSet) Transitions() (delta, next []int64, ok bool) {
	if !ts.general {
		return nil, nil, false
	}
	return ts.delta, ts.next, true
}

// SingleCycle reports whether the shared transition graph is one k-cycle,
// i.e. gcd(s, pk) = 1 — the case where the paper notes that "the local AM
// sequences are cyclic shifts of one another, and after computing the
// table once, only the starting locations for all the processors need to
// be found."
func (ts *TableSet) SingleCycle() bool { return ts.general && ts.d == 1 }

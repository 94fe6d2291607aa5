package core

import (
	"testing"

	"repro/internal/intmath"
)

// FuzzLatticeVsOracle drives the three fast algorithms against the
// brute-force oracle with fuzzer-chosen parameters, and every rank's
// TableSet.Spans against Problem.Count/Last and TableSet.Sequence for
// upper bounds picked by v. `go test` runs the seed corpus;
// `go test -fuzz FuzzLatticeVsOracle` explores further.
func FuzzLatticeVsOracle(f *testing.F) {
	f.Add(int64(4), int64(8), int64(4), int64(9), int64(1), int64(0)) // the paper
	f.Add(int64(32), int64(512), int64(0), int64(7), int64(31), int64(5))
	f.Add(int64(1), int64(1), int64(0), int64(1), int64(0), int64(0))
	f.Add(int64(4), int64(2), int64(3), int64(8), int64(2), int64(1)) // degenerate
	f.Add(int64(7), int64(16), int64(100), int64(113), int64(3), int64(2))
	f.Add(int64(4), int64(8), int64(5), int64(6), int64(0), int64(7))   // gcd(s, pk) = 2
	f.Add(int64(3), int64(8), int64(1), int64(12), int64(2), int64(3))  // gcd(s, pk) = 12
	f.Add(int64(6), int64(1), int64(2), int64(4), int64(5), int64(4))   // k = 1
	f.Add(int64(3), int64(5), int64(7), int64(38), int64(1), int64(11)) // s > pk
	f.Add(int64(2), int64(4), int64(0), int64(8), int64(1), int64(-6))  // s = pk
	f.Fuzz(func(t *testing.T, p, k, l, s, m, v int64) {
		// Clamp into the valid, testable regime (the oracle is O(pk/d)).
		p = 1 + absMod(p, 16)
		k = 1 + absMod(k, 32)
		s = 1 + absMod(s, 4*p*k)
		l = absMod(l, 3*p*k)
		m = absMod(m, p)
		pr := Problem{P: p, K: k, L: l, S: s, M: m}
		ref, err := Enumerate(pr)
		if err != nil {
			t.Fatalf("oracle failed on valid input %+v: %v", pr, err)
		}
		lat, err := Lattice(pr)
		if err != nil {
			t.Fatalf("Lattice(%+v): %v", pr, err)
		}
		if !lat.Equal(ref) {
			t.Fatalf("%+v: lattice %v != oracle %v", pr, lat, ref)
		}
		srt, err := Sorting(pr)
		if err != nil || !srt.Equal(ref) {
			t.Fatalf("%+v: sorting %v != oracle %v (err %v)", pr, srt, ref, err)
		}
		if hir, err := Hiranandani(pr); err == nil && !hir.Equal(ref) {
			t.Fatalf("%+v: hiranandani %v != oracle %v", pr, hir, ref)
		}
		ts, err := NewTableSet(p, k, l, s)
		if err != nil {
			t.Fatalf("NewTableSet(%+v): %v", pr, err)
		}
		if got, err := ts.Sequence(m); err != nil || !got.Equal(ref) {
			t.Fatalf("%+v: tableset %v != oracle %v (err %v)", pr, got, ref, err)
		}
		for _, u := range spanBounds(p, k, l, s, v) {
			checkSpans(t, ts, p, k, l, s, u)
		}
	})
}

// spanBounds returns the upper bounds the span checks cover for one
// configuration: u < l, a u inside the first period of pk/d section
// elements, and the u giving n = Q·pk/d and Q·pk/d ± 1 elements for a
// v-chosen Q in [1, 3].
func spanBounds(p, k, l, s, v int64) []int64 {
	nd := p * k / intmath.GCD(s, p*k)
	q := 1 + absMod(v, 3)
	out := []int64{l - 1, l + absMod(v, nd*s)}
	for _, n := range []int64{q*nd - 1, q * nd, q*nd + 1} {
		out = append(out, l+(n-1)*s)
	}
	return out
}

// checkSpans compares every rank's span for upper bound u with the
// per-rank oracles: Sequence for the start and gap table, Problem.Count
// and Problem.Last for the bounded extent.
func checkSpans(t *testing.T, ts *TableSet, p, k, l, s, u int64) {
	t.Helper()
	spans := ts.Spans(u)
	if int64(len(spans)) != p {
		t.Fatalf("p=%d k=%d l=%d s=%d u=%d: %d spans", p, k, l, s, u, len(spans))
	}
	for m, sp := range spans {
		pr := Problem{P: p, K: k, L: l, S: s, M: int64(m)}
		seq, err := ts.Sequence(pr.M)
		if err != nil {
			t.Fatal(err)
		}
		count, err := pr.Count(u)
		if err != nil {
			t.Fatal(err)
		}
		last, err := pr.Last(u)
		if err != nil {
			t.Fatal(err)
		}
		if !sp.Sequence.Equal(seq) || sp.Count != count || sp.Last != last {
			t.Fatalf("%+v u=%d: span %v count=%d last=%d, want %v count=%d last=%d",
				pr, u, sp.Sequence, sp.Count, sp.Last, seq, count, last)
		}
		if cap(sp.Gaps) != len(sp.Gaps) {
			t.Fatalf("%+v u=%d: gap window has cap %d > len %d", pr, u, cap(sp.Gaps), len(sp.Gaps))
		}
	}
}

// FuzzWalkerAgainstTable checks the table-free walker against the AM
// table over several periods.
func FuzzWalkerAgainstTable(f *testing.F) {
	f.Add(int64(4), int64(8), int64(4), int64(9), int64(1))
	f.Add(int64(3), int64(5), int64(2), int64(11), int64(2))
	f.Fuzz(func(t *testing.T, p, k, l, s, m int64) {
		p = 1 + absMod(p, 12)
		k = 1 + absMod(k, 24)
		s = 1 + absMod(s, 3*p*k)
		l = absMod(l, 2*p*k)
		m = absMod(m, p)
		pr := Problem{P: p, K: k, L: l, S: s, M: m}
		seq, err := Lattice(pr)
		if err != nil {
			t.Fatal(err)
		}
		w, ok, err := NewWalker(pr)
		if err != nil {
			t.Fatal(err)
		}
		if ok != !seq.Empty() {
			t.Fatalf("%+v: walker ok=%v, sequence empty=%v", pr, ok, seq.Empty())
		}
		if !ok {
			return
		}
		for rep := 0; rep < 2; rep++ {
			for i, g := range seq.Gaps {
				if got := w.Next(); got != g {
					t.Fatalf("%+v: walker gap %d = %d, want %d", pr, i, got, g)
				}
			}
		}
	})
}

func absMod(v, n int64) int64 {
	if n <= 0 {
		return 0
	}
	r := v % n
	if r < 0 {
		r += n
	}
	return r
}

package codegen

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// fz folds an arbitrary fuzzed int64 into [lo, hi].
func fz(v, lo, hi int64) int64 {
	span := hi - lo + 1
	v %= span
	if v < 0 {
		v += span
	}
	return lo + v
}

// FuzzKernelShapeAgreement fuzzes (p, k, l, u, s) and checks, for every
// processor of the configuration, that every Figure 8 shape and every
// valid specialized kernel writes the identical element set — with
// core.Problem.Addresses (the enumerated lattice) as ground truth — and
// that each kernel's Map and Walk visit the access sequence exactly, in
// order, and its Sum totals exactly the oracle's elements.
func FuzzKernelShapeAgreement(f *testing.F) {
	f.Add(int64(4), int64(8), int64(4), int64(320), int64(9))   // paper example
	f.Add(int64(4), int64(1), int64(0), int64(400), int64(3))   // cyclic(1)
	f.Add(int64(4), int64(30), int64(0), int64(119), int64(3))  // block-ish
	f.Add(int64(4), int64(16), int64(0), int64(900), int64(5))  // row stride
	f.Add(int64(4), int64(16), int64(5), int64(900), int64(23)) // generic
	f.Add(int64(2), int64(3), int64(0), int64(50), int64(1))    // unit stride
	f.Add(int64(7), int64(5), int64(11), int64(13), int64(29))  // tiny range

	f.Fuzz(func(t *testing.T, p, k, l, u, s int64) {
		p = fz(p, 1, 8)
		k = fz(k, 1, 32)
		s = fz(s, 1, 2*p*k+3)
		l = fz(l, 0, 2*p*k)
		u = fz(u, l, l+3000)

		for m := int64(0); m < p; m++ {
			pr := core.Problem{P: p, K: k, L: l, S: s, M: m}
			if pr.Validate() != nil {
				return
			}
			addrs, err := pr.Addresses(u)
			if err != nil {
				t.Fatalf("%+v u=%d: Addresses: %v", pr, u, err)
			}
			want := make(map[int64]bool, len(addrs))
			for _, a := range addrs {
				want[a] = true
			}
			start, last := int64(-1), int64(-1)
			if len(addrs) > 0 {
				start, last = addrs[0], addrs[len(addrs)-1]
			}
			mem := make([]float64, last+2+2) // +2 slack catches overruns as writes, not panics

			check := func(label string, wrote int64) {
				t.Helper()
				if wrote != int64(len(addrs)) {
					t.Fatalf("%+v u=%d %s: wrote %d, want %d", pr, u, label, wrote, len(addrs))
				}
				for a, v := range mem {
					if want[int64(a)] != (v != 0) {
						t.Fatalf("%+v u=%d %s: address %d wrong (owned=%v, written=%v)",
							pr, u, label, a, want[int64(a)], v != 0)
					}
				}
				clear(mem)
			}

			seq, err := core.Lattice(pr)
			if err != nil {
				t.Fatalf("%+v: Lattice: %v", pr, err)
			}
			check("ShapeA", ShapeA(mem, start, last, seq.Gaps, 1))
			check("ShapeB", ShapeB(mem, start, last, seq.Gaps, 1))
			check("ShapeC", ShapeC(mem, start, last, seq.Gaps, 1))
			tab, err := core.OffsetTables(pr)
			if err != nil {
				t.Fatalf("%+v: OffsetTables: %v", pr, err)
			}
			check("ShapeD", ShapeD(mem, start, last, tab, 1))
			if w, ok, _ := core.NewWalker(pr); ok {
				check("ShapeWalker", ShapeWalker(mem, last, w, 1))
			}

			sp := Spec{
				Problem: pr, Start: start, Last: last,
				Count: int64(len(addrs)), Gaps: seq.Gaps,
			}
			var wantSum float64
			for _, a := range addrs {
				wantSum += float64(a)
			}
			for _, kn := range Candidates(sp) {
				kn := kn
				label := "kernel/" + kn.Kind().String()
				check(label, kn.Fill(mem, 1))

				// Access order: the traversal must visit exactly the
				// oracle sequence, in order.
				var walked []int64
				n := kn.Walk(func(a int64) { walked = append(walked, a) })
				if n != int64(len(addrs)) || !slices.Equal(walked, addrs) {
					t.Fatalf("%+v u=%d %s: walk visited %v (count %d), want %v", pr, u, label, walked, n, addrs)
				}

				// With mem[a] = a, Map's arguments are the addresses it
				// visits, and Sum is the sum of the oracle addresses.
				for a := range mem {
					mem[a] = float64(a)
				}
				var mapped []int64
				n = kn.Map(mem, func(x float64) float64 {
					mapped = append(mapped, int64(x))
					return x
				})
				if n != int64(len(addrs)) || !slices.Equal(mapped, addrs) {
					t.Fatalf("%+v u=%d %s: map visited %v (count %d), want %v", pr, u, label, mapped, n, addrs)
				}
				if got, n := kn.Sum(mem); got != wantSum || n != int64(len(addrs)) {
					t.Fatalf("%+v u=%d %s: sum = (%v, %d), want (%v, %d)", pr, u, label, got, n, wantSum, len(addrs))
				}
				clear(mem)
			}
		}
	})
}

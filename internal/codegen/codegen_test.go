package codegen

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// fixture builds everything a node-code shape needs for one problem and
// upper bound: the local memory, start/last local addresses, tables, and
// the reference address list.
type fixture struct {
	pr        core.Problem
	mem       []float64
	start     int64 // StartLocal, or -1
	last      int64 // local address of last owned element, or -1
	gaps      []int64
	offsetTab core.OffsetTable
	wantAddrs []int64
}

func newFixture(t *testing.T, pr core.Problem, u int64) *fixture {
	t.Helper()
	f := &fixture{pr: pr, start: -1, last: -1}
	addrs, err := pr.Addresses(u)
	if err != nil {
		t.Fatal(err)
	}
	f.wantAddrs = addrs
	seq, err := core.Lattice(pr)
	if err != nil {
		t.Fatal(err)
	}
	f.offsetTab, err = core.OffsetTables(pr)
	if err != nil {
		t.Fatal(err)
	}
	f.gaps = seq.Gaps
	if len(addrs) > 0 {
		f.start = addrs[0]
		f.last = addrs[len(addrs)-1]
	}
	memSize := int64(16)
	if len(addrs) > 0 {
		memSize = f.last + 2
	}
	f.mem = make([]float64, memSize)
	return f
}

func (f *fixture) verify(t *testing.T, label string, wrote int64) {
	t.Helper()
	if wrote != int64(len(f.wantAddrs)) {
		t.Errorf("%s: wrote %d elements, want %d", label, wrote, len(f.wantAddrs))
	}
	want := map[int64]bool{}
	for _, a := range f.wantAddrs {
		want[a] = true
	}
	for a, v := range f.mem {
		if want[int64(a)] && v != 1.0 {
			t.Errorf("%s: address %d not written", label, a)
		}
		if !want[int64(a)] && v != 0 {
			t.Errorf("%s: address %d written spuriously", label, a)
		}
	}
	clear(f.mem)
}

func testProblems() []struct {
	pr core.Problem
	u  int64
} {
	var out []struct {
		pr core.Problem
		u  int64
	}
	add := func(p, k, l, s, m, u int64) {
		out = append(out, struct {
			pr core.Problem
			u  int64
		}{core.Problem{P: p, K: k, L: l, S: s, M: m}, u})
	}
	add(4, 8, 4, 9, 1, 320)   // the paper's example
	add(4, 8, 0, 9, 0, 319)   // Figure 1
	add(32, 4, 0, 7, 5, 5000) // Table 2-ish
	add(4, 2, 3, 8, 1, 100)   // single-offset case
	add(4, 2, 3, 8, 0, 100)   // empty processor
	add(2, 3, 0, 1, 1, 50)    // unit stride
	add(1, 4, 0, 5, 0, 200)   // single processor
	add(4, 8, 4, 9, 1, 4)     // single element (start == last)
	add(4, 8, 4, 9, 1, 3)     // upper bound below lower: empty range
	return out
}

func TestShapesAgree(t *testing.T) {
	for _, tc := range testProblems() {
		f := newFixture(t, tc.pr, tc.u)

		f.verify(t, "ShapeA", ShapeA(f.mem, f.start, f.last, f.gaps, 1.0))
		f.verify(t, "ShapeB", ShapeB(f.mem, f.start, f.last, f.gaps, 1.0))
		f.verify(t, "ShapeC", ShapeC(f.mem, f.start, f.last, f.gaps, 1.0))
		f.verify(t, "ShapeD", ShapeD(f.mem, f.start, f.last, f.offsetTab, 1.0))

		w, ok, err := core.NewWalker(tc.pr)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			f.verify(t, "ShapeWalker", ShapeWalker(f.mem, f.last, w, 1.0))
		} else if len(f.wantAddrs) != 0 {
			t.Errorf("%+v: walker missing but elements exist", tc.pr)
		}
	}
}

func TestShapesAgreeRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		p := r.Int63n(8) + 1
		k := r.Int63n(12) + 1
		s := r.Int63n(3*p*k) + 1
		l := r.Int63n(p * k)
		u := l + r.Int63n(8*s*k+1)
		m := r.Int63n(p)
		pr := core.Problem{P: p, K: k, L: l, S: s, M: m}
		f := newFixture(t, pr, u)

		f.verify(t, "ShapeA", ShapeA(f.mem, f.start, f.last, f.gaps, 1.0))
		f.verify(t, "ShapeB", ShapeB(f.mem, f.start, f.last, f.gaps, 1.0))
		f.verify(t, "ShapeC", ShapeC(f.mem, f.start, f.last, f.gaps, 1.0))
		f.verify(t, "ShapeD", ShapeD(f.mem, f.start, f.last, f.offsetTab, 1.0))
		if w, ok, _ := core.NewWalker(pr); ok {
			f.verify(t, "ShapeWalker", ShapeWalker(f.mem, f.last, w, 1.0))
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	mem := make([]float64, 8)
	if n := ShapeA(mem, -1, -1, nil, 1.0); n != 0 {
		t.Errorf("ShapeA on empty = %d", n)
	}
	if n := ShapeB(mem, -1, -1, nil, 1.0); n != 0 {
		t.Errorf("ShapeB on empty = %d", n)
	}
	if n := ShapeC(mem, -1, -1, nil, 1.0); n != 0 {
		t.Errorf("ShapeC on empty = %d", n)
	}
	if n := ShapeD(mem, -1, -1, core.OffsetTable{Start: -1}, 1.0); n != 0 {
		t.Errorf("ShapeD on empty = %d", n)
	}
	if n := ShapeB(mem, 5, 4, []int64{1}, 1.0); n != 0 || mem[5] != 0 {
		t.Errorf("ShapeB past-last = %d", n)
	}
}

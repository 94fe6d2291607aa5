package analysis

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/lang/ast"
	"repro/internal/section"
)

// TestObservations pins the backward scan's fact just after each
// statement, for the array that statement writes or redistributes.
func TestObservations(t *testing.T) {
	type want struct {
		kind    obsKind
		line    int
		pending []int // lines of the pending writes, in scan order
	}
	cases := []struct {
		name string
		src  string
		want []want // one per statement
	}{
		{"partial write then full overwrite", `
processors P(4)
array A(64) distribute cyclic(4) onto P
A(0:9) = 1.0
A(0:31:2) = 2.0
A = 3.0
sum A
`, []want{{}, {},
			{obsOverwrite, 6, []int{6, 5}},
			{obsOverwrite, 6, []int{6}},
			{obsRead, 7, nil},
			{}}},
		{"read and write in one statement", `
processors P(4)
array A(64) distribute cyclic(4) onto P
A = 1.0
A = A + 1
`, []want{{}, {},
			{obsRead, 5, nil},
			{}}},
		{"read after a redistribute", `
processors P(4)
array A(64) distribute cyclic(4) onto P
A = 1.0
redistribute A cyclic(8)
print A(0:3)
`, []want{{}, {},
			{obsRedist, 5, nil},
			{obsRead, 6, nil},
			{}}},
		{"redistribute of a 2-D array changes nothing", `
processors Q(2,2)
array M(8,8) distribute (cyclic(2),cyclic(2)) onto Q
M = 1.0
redistribute M cyclic(4)
M = 2.0
`, []want{{}, {},
			{obsOverwrite, 6, []int{6}},
			{obsOverwrite, 6, []int{6}},
			{}}},
		{"use before the declaration", `
processors P(4)
sum A
array A(64) distribute cyclic(4) onto P
A = 1.0
`, []want{{}, {}, {}, {}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, err := ast.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			got := observations(sc.Stmts, firstDecls(sc.Stmts))
			if len(got) != len(c.want) {
				t.Fatalf("%d facts, want %d", len(got), len(c.want))
			}
			for i, w := range c.want {
				var lines []int
				for _, pw := range got[i].pending {
					lines = append(lines, pw.line)
				}
				if got[i].kind != w.kind || got[i].line != w.line || !slices.Equal(lines, w.pending) {
					t.Errorf("statement %d (line %d): got (%d, %d, %v), want (%d, %d, %v)",
						i, sc.Stmts[i].Pos().Line, got[i].kind, got[i].line, lines, w.kind, w.line, w.pending)
				}
			}
		})
	}
}

// TestAnalyzeAllocsLinear guards the cost of one Analyze: with n arrays
// and n copies, doubling n must not much more than double the
// allocations. A per-statement copy of the symbol table would quadruple
// them.
func TestAnalyzeAllocsLinear(t *testing.T) {
	allocs := func(n int) float64 {
		var b strings.Builder
		b.WriteString("processors P(4)\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "array A%d(64) distribute cyclic(%d) onto P\n", i, i%4+1)
		}
		b.WriteString("A0 = 1.0\n")
		for i := 1; i < n; i++ {
			fmt.Fprintf(&b, "A%d = A%d\n", i, i-1)
		}
		fmt.Fprintf(&b, "sum A%d\n", n-1)
		sc, err := ast.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() { Analyze(sc) })
	}
	a200, a400 := allocs(200), allocs(400)
	if a400 >= 2.5*a200 {
		t.Errorf("Analyze allocations grow superlinearly: %.0f at n=200, %.0f at n=400 (×%.2f, want < 2.5)",
			a200, a400, a400/a200)
	}
}

func sec(lo, hi, stride int64) section.Section {
	return section.Section{Lo: lo, Hi: hi, Stride: stride}
}

func TestCoveredBy(t *testing.T) {
	mk := func(s section.Section) secRef { return secRef{name: "A", secs: []section.Section{s}} }
	cases := []struct {
		a, b secRef
		want bool
	}{
		{mk(sec(0, 31, 2)), mk(sec(0, 63, 1)), true},  // stride 2 inside stride 1
		{mk(sec(0, 63, 1)), mk(sec(0, 31, 2)), false}, // dense not inside strided
		{mk(sec(4, 28, 8)), mk(sec(0, 60, 4)), true},  // stride multiple, aligned
		{mk(sec(5, 29, 8)), mk(sec(0, 60, 4)), false}, // misaligned phase
		{mk(sec(0, 9, 1)), mk(sec(2, 11, 1)), false},  // sticks out on the left
		{mk(sec(0, 9, 1)), secRef{name: "A", full: true}, true},
	}
	for i, c := range cases {
		if got := c.a.coveredBy(c.b); got != c.want {
			t.Errorf("case %d: coveredBy = %v, want %v", i, got, c.want)
		}
	}
}

func TestMovedEstimate(t *testing.T) {
	c8 := []dist.Layout{dist.MustNew(4, 8)}
	c16 := []dist.Layout{dist.MustNew(4, 16)}
	whole := []section.Section{sec(0, 319, 1)}
	// Redistributing 320 elements from cyclic(8) to cyclic(16) on 4
	// procs relocates exactly 3/4 of them (period 64: blocks 8..55 move).
	if got := movedEstimate(c16, whole, c8, whole); got != 240 {
		t.Errorf("redistribute estimate = %d, want 240", got)
	}
	// Identical layout, aligned sections: nothing moves.
	if got := movedEstimate(c8, []section.Section{sec(0, 9, 1)}, c8, []section.Section{sec(0, 9, 1)}); got != 0 {
		t.Errorf("aligned copy estimate = %d, want 0", got)
	}
	// Shift by one full block: every element changes owner.
	if got := movedEstimate(c8, []section.Section{sec(0, 311, 1)}, c8, []section.Section{sec(8, 319, 1)}); got != 312 {
		t.Errorf("shifted copy estimate = %d, want 312", got)
	}
	// Unknown layouts contribute nothing rather than guessing.
	if got := movedEstimate([]dist.Layout{{}}, whole, c8, whole); got != 0 {
		t.Errorf("unknown layout estimate = %d, want 0", got)
	}
}

package hpf

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/section"
)

// checkRect is the oracle for the 2-D ops: it seeds a with distinct
// integers, checks SumRect against a per-element Get walk over rect
// (exact, since the sums stay far below 2^53), then checks FillRect
// against a dense copy with only rect's cells overwritten.
func checkRect(t *testing.T, a *Array2D, rect section.Rect) {
	t.Helper()
	n0, n1 := a.Dims()
	for i := int64(0); i < n0; i++ {
		for j := int64(0); j < n1; j++ {
			a.Set(i, j, float64(i*n1+j))
		}
	}
	var want float64
	for idx := range rect.All() {
		want += a.Get(idx[0], idx[1])
	}
	got, err := a.SumRect(rect)
	if err != nil {
		t.Fatalf("rect %v: SumRect: %v", rect, err)
	}
	if got != want {
		t.Fatalf("rect %v: SumRect = %v, Get walk %v", rect, got, want)
	}
	dense := a.Gather()
	for idx := range rect.All() {
		dense[idx[0]*n1+idx[1]] = -1
	}
	if err := a.FillRect(rect, -1); err != nil {
		t.Fatalf("rect %v: FillRect: %v", rect, err)
	}
	for i, v := range a.Gather() {
		if v != dense[i] {
			t.Fatalf("rect %v: cell (%d,%d) = %v, want %v", rect, int64(i)/n1, int64(i)%n1, v, dense[i])
		}
	}
}

func mustRect(t *testing.T, dims ...section.Section) section.Rect {
	t.Helper()
	rect, err := section.NewRect(dims...)
	if err != nil {
		t.Fatal(err)
	}
	return rect
}

// TestFillRectAgainstDense runs fixed edge cases, then random grids
// and sections, through the FillRect and SumRect oracle.
func TestFillRectAgainstDense(t *testing.T) {
	for _, c := range []struct {
		name       string
		p0, k0     int64
		p1, k1     int64
		rows, cols section.Section
	}{
		{"empty dim 0", 2, 2, 2, 3, section.Section{Lo: 5, Hi: 4, Stride: 1}, section.MustNew(0, 12, 2)},
		{"empty dim 1", 2, 2, 2, 3, section.MustNew(1, 10, 3), section.Section{Lo: 3, Hi: 7, Stride: -2}},
		{"one proc on dim 0", 1, 3, 3, 2, section.MustNew(0, 10, 2), section.MustNew(1, 12, 3)},
		{"one proc on dim 1", 3, 2, 1, 4, section.MustNew(2, 10, 1), section.MustNew(0, 12, 5)},
		{"both strides negative", 2, 3, 3, 2, section.MustNew(10, 0, -3), section.MustNew(12, 1, -2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := dist.MustNewGrid(dist.MustNew(c.p0, c.k0), dist.MustNew(c.p1, c.k1))
			checkRect(t, MustNewArray2D(g, 11, 13), mustRect(t, c.rows, c.cols))
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(14))
		for trial := 0; trial < 120; trial++ {
			g := dist.MustNewGrid(
				dist.MustNew(r.Int63n(3)+1, r.Int63n(4)+1),
				dist.MustNew(r.Int63n(3)+1, r.Int63n(4)+1),
			)
			n0 := r.Int63n(25) + 5
			n1 := r.Int63n(25) + 5
			mkSec := func(n int64) section.Section {
				s := r.Int63n(4) + 1
				lo := r.Int63n(n)
				hi := min(n-1, lo+r.Int63n(2*s+8))
				if r.Intn(3) == 0 {
					return section.Section{Lo: hi, Hi: lo, Stride: -s}
				}
				return section.Section{Lo: lo, Hi: hi, Stride: s}
			}
			checkRect(t, MustNewArray2D(g, n0, n1), mustRect(t, mkSec(n0), mkSec(n1)))
		}
	})
}

// TestRectPlansCached checks that a repeated 2-D op takes both
// dimensions' plans from the section-plan cache, and that the dim-1
// kernel runs once per owned row.
func TestRectPlansCached(t *testing.T) {
	g := dist.MustNewGrid(dist.MustNew(2, 3), dist.MustNew(3, 2))
	a := MustNewArray2D(g, 20, 17)
	rect := mustRect(t, section.MustNew(1, 18, 2), section.MustNew(15, 0, -3))
	if err := a.FillRect(rect, 1); err != nil {
		t.Fatal(err)
	}
	misses := SectionPlanCacheStats().Misses
	var wantRows int64
	for r := int64(0); r < g.Procs(); r++ {
		c := g.Coords(r)
		var rows, cols int64
		for _, i := range rect[0].All() {
			if g.Dim(0).Owner(i) == c[0] {
				rows++
			}
		}
		for _, j := range rect[1].All() {
			if g.Dim(1).Owner(j) == c[1] {
				cols++
			}
		}
		if cols > 0 {
			wantRows += rows
		}
	}
	d := kernelCounterDeltas(func() {
		if err := a.FillRect(rect, 2); err != nil {
			t.Fatal(err)
		}
	})
	if got := SectionPlanCacheStats().Misses; got != misses {
		t.Errorf("second FillRect missed the plan cache %d times", got-misses)
	}
	var invoked int64
	for name, n := range d {
		if !strings.HasPrefix(name, "codegen.kernel_invocations.") {
			t.Errorf("warm FillRect moved %s by %d", name, n)
		}
		invoked += n
	}
	if invoked != wantRows {
		t.Errorf("kernel invocations = %d, want one per owned row = %d", invoked, wantRows)
	}
}

func TestSumRect(t *testing.T) {
	g := dist.MustNewGrid(dist.MustNew(2, 2), dist.MustNew(2, 3))
	a := MustNewArray2D(g, 12, 14)
	for i := int64(0); i < 12; i++ {
		for j := int64(0); j < 14; j++ {
			a.Set(i, j, float64(i*100+j))
		}
	}
	rect, _ := section.NewRect(section.MustNew(1, 11, 2), section.MustNew(0, 13, 3))
	got, err := a.SumRect(rect)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for idx := range rect.All() {
		want += a.Get(idx[0], idx[1])
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("SumRect = %v, want %v", got, want)
	}
}

func TestRectRankValidation(t *testing.T) {
	g := dist.MustNewGrid(dist.MustNew(2, 2), dist.MustNew(2, 2))
	a := MustNewArray2D(g, 8, 8)
	rect1, _ := section.NewRect(section.MustNew(0, 7, 1))
	if err := a.FillRect(rect1, 0); err == nil {
		t.Error("rank-1 rect should fail")
	}
	if _, err := a.SumRect(rect1); err == nil {
		t.Error("rank-1 rect should fail")
	}
	t.Run("out of bounds", func(t *testing.T) {
		empty := section.Section{Lo: 3, Hi: 2, Stride: 1}
		for _, c := range []struct {
			rect section.Rect
			dim  string
		}{
			{mustRect(t, section.MustNew(0, 8, 1), section.MustNew(0, 7, 1)), "dimension 0"},
			{mustRect(t, section.MustNew(-2, 7, 3), section.MustNew(0, 7, 1)), "dimension 0"},
			{mustRect(t, section.MustNew(0, 7, 1), section.Section{Lo: 8, Hi: 1, Stride: -1}), "dimension 1"},
			{mustRect(t, empty, section.MustNew(0, 8, 2)), "dimension 1"},
		} {
			errF := a.FillRect(c.rect, 1)
			_, errS := a.SumRect(c.rect)
			for _, err := range []error{errF, errS} {
				if err == nil || !strings.Contains(err.Error(), "outside") || !strings.Contains(err.Error(), c.dim) {
					t.Errorf("rect %v: error %v, want one naming %q as outside", c.rect, err, c.dim)
				}
			}
		}
	})
}

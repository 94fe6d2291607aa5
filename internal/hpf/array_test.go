package hpf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/section"
)

func TestNewArray(t *testing.T) {
	layout := dist.MustNew(4, 8)
	a, err := NewArray(layout, 320)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 320 {
		t.Errorf("N = %d", a.N())
	}
	// 320 = 10 rows of 32; every processor owns 80 cells.
	for m := int64(0); m < 4; m++ {
		if got := len(a.LocalMem(m)); got != 80 {
			t.Errorf("local size m=%d: %d, want 80", m, got)
		}
	}
	if _, err := NewArray(layout, -1); err == nil {
		t.Error("negative size should fail")
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	a := MustNewArray(dist.MustNew(3, 5), 100)
	for i := int64(0); i < 100; i++ {
		a.Set(i, float64(i)*1.5)
	}
	for i := int64(0); i < 100; i++ {
		if got := a.Get(i); got != float64(i)*1.5 {
			t.Fatalf("Get(%d) = %v", i, got)
		}
	}
	dense := a.Gather()
	for i := range dense {
		if dense[i] != float64(i)*1.5 {
			t.Fatalf("Gather[%d] = %v", i, dense[i])
		}
	}
}

func TestBoundsPanic(t *testing.T) {
	a := MustNewArray(dist.MustNew(2, 2), 10)
	for _, i := range []int64{-1, 10, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) should panic", i)
				}
			}()
			a.Get(i)
		}()
	}
}

func TestFillSectionAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		p := r.Int63n(6) + 1
		k := r.Int63n(10) + 1
		n := r.Int63n(400) + 1
		a := MustNewArray(dist.MustNew(p, k), n)
		a.FillAll(-1)
		dense := make([]float64, n)
		for i := range dense {
			dense[i] = -1
		}
		lo := r.Int63n(n)
		s := r.Int63n(3*p*k) + 1
		hi := min(n-1, lo+r.Int63n(4*s*k+1))
		if r.Intn(4) == 0 {
			// descending variant
			lo, hi = hi, lo
			s = -s
		}
		sec := section.MustNew(lo, hi, s)
		if err := a.FillSection(sec, 7); err != nil {
			t.Fatal(err)
		}
		for _, g := range sec.Slice() {
			dense[g] = 7
		}
		if got := a.Gather(); !reflect.DeepEqual(got, dense) {
			t.Fatalf("p=%d k=%d n=%d sec=%v: fill mismatch", p, k, n, sec)
		}
	}
}

func TestFillSectionOutOfBounds(t *testing.T) {
	a := MustNewArray(dist.MustNew(2, 4), 20)
	if err := a.FillSection(section.MustNew(0, 20, 1), 1); err == nil {
		t.Error("section past end should fail")
	}
	if err := a.FillSection(section.MustNew(-5, 10, 1), 1); err == nil {
		t.Error("section below start should fail")
	}
	// Empty sections are fine no-ops.
	if err := a.FillSection(section.MustNew(5, 4, 1), 1); err != nil {
		t.Errorf("empty section should be a no-op: %v", err)
	}
}

func TestMapSection(t *testing.T) {
	a := MustNewArray(dist.MustNew(4, 3), 100)
	for i := int64(0); i < 100; i++ {
		a.Set(i, float64(i))
	}
	sec := section.MustNew(2, 98, 7)
	if err := a.MapSection(sec, func(x float64) float64 { return -x }); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		want := float64(i)
		if sec.Contains(i) {
			want = -want
		}
		if got := a.Get(i); got != want {
			t.Fatalf("Get(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestSumSection(t *testing.T) {
	a := MustNewArray(dist.MustNew(4, 8), 320)
	for i := int64(0); i < 320; i++ {
		a.Set(i, float64(i))
	}
	sec := section.MustNew(4, 300, 9)
	got, err := a.SumSection(sec)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, g := range sec.Slice() {
		want += float64(g)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("SumSection = %v, want %v", got, want)
	}
}

func TestGatherSection(t *testing.T) {
	a := MustNewArray(dist.MustNew(3, 4), 60)
	for i := int64(0); i < 60; i++ {
		a.Set(i, float64(i))
	}
	sec := section.MustNew(50, 2, -6) // descending
	vals, err := a.GatherSection(sec)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{50, 44, 38, 32, 26, 20, 14, 8, 2}
	if !reflect.DeepEqual(vals, want) {
		t.Errorf("GatherSection = %v, want %v", vals, want)
	}
}

func TestArray2DBasics(t *testing.T) {
	grid := dist.MustNewGrid(dist.MustNew(2, 2), dist.MustNew(3, 1))
	a, err := NewArray2D(grid, 7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if n0, n1 := a.Dims(); n0 != 7 || n1 != 9 {
		t.Errorf("Dims = %d,%d", n0, n1)
	}
	for i := int64(0); i < 7; i++ {
		for j := int64(0); j < 9; j++ {
			a.Set(i, j, float64(i*100+j))
		}
	}
	for i := int64(0); i < 7; i++ {
		for j := int64(0); j < 9; j++ {
			if got := a.Get(i, j); got != float64(i*100+j) {
				t.Fatalf("Get(%d,%d) = %v", i, j, got)
			}
		}
	}
	dense := a.Gather()
	if dense[3*9+4] != 304 {
		t.Errorf("Gather[3,4] = %v", dense[3*9+4])
	}
	// Total local volume must equal the global volume.
	var vol int64
	for r := int64(0); r < grid.Procs(); r++ {
		mem, rows, cols := a.LocalMem(r)
		if int64(len(mem)) != rows*cols {
			t.Errorf("rank %d: len(mem)=%d, rows*cols=%d", r, len(mem), rows*cols)
		}
		vol += rows * cols
	}
	if vol != 63 {
		t.Errorf("total local volume %d, want 63", vol)
	}
}

func TestArray2DLocalDomain(t *testing.T) {
	grid := dist.MustNewGrid(dist.MustNew(2, 2), dist.MustNew(2, 3))
	a := MustNewArray2D(grid, 10, 11)
	seenRow := map[int64]int{}
	seenCol := map[int64]int{}
	for r := int64(0); r < grid.Procs(); r++ {
		rows, cols := a.LocalDomain(r)
		coords := grid.Coords(r)
		for _, i := range rows {
			if grid.Dim(0).Owner(i) != coords[0] {
				t.Errorf("rank %d: row index %d not owned", r, i)
			}
			if coords[1] == 0 {
				seenRow[i]++
			}
		}
		for _, j := range cols {
			if grid.Dim(1).Owner(j) != coords[1] {
				t.Errorf("rank %d: col index %d not owned", r, j)
			}
			if coords[0] == 0 {
				seenCol[j]++
			}
		}
	}
	// Every global row/col index appears exactly once across one grid slice.
	for i := int64(0); i < 10; i++ {
		if seenRow[i] != 1 {
			t.Errorf("row %d seen %d times", i, seenRow[i])
		}
	}
	for j := int64(0); j < 11; j++ {
		if seenCol[j] != 1 {
			t.Errorf("col %d seen %d times", j, seenCol[j])
		}
	}
}

func TestArray2DValidation(t *testing.T) {
	g1 := dist.MustNewGrid(dist.MustNew(2, 2))
	if _, err := NewArray2D(g1, 4, 4); err == nil {
		t.Error("rank-1 grid should fail")
	}
	g2 := dist.MustNewGrid(dist.MustNew(2, 2), dist.MustNew(2, 2))
	if _, err := NewArray2D(g2, -1, 4); err == nil {
		t.Error("negative extent should fail")
	}
}

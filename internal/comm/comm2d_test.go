package comm

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
)

func randomGrid(r *rand.Rand) *dist.Grid {
	return dist.MustNewGrid(
		dist.MustNew(r.Int63n(3)+1, r.Int63n(4)+1),
		dist.MustNew(r.Int63n(3)+1, r.Int63n(4)+1),
	)
}

// randomRectIn builds a rect with the given per-axis counts fitting in an
// n0×n1 array.
func randomRectIn(r *rand.Rand, c0, c1, n0, n1 int64) section.Rect {
	mk := func(count, n int64) section.Section {
		s := r.Int63n(3) + 1
		span := (count - 1) * s
		for span >= n {
			s = 1
			span = count - 1
		}
		lo := r.Int63n(n - span)
		sec := section.Section{Lo: lo, Hi: lo + span, Stride: s}
		if r.Intn(3) == 0 {
			sec = section.Section{Lo: sec.Last(), Hi: sec.Lo, Stride: -s}
		}
		return sec
	}
	rect, _ := section.NewRect(mk(c0, n0), mk(c1, n1))
	return rect
}

func TestCopy2DRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 50; trial++ {
		sg, dg := randomGrid(r), randomGrid(r)
		sn0, sn1 := r.Int63n(20)+8, r.Int63n(20)+8
		dn0, dn1 := r.Int63n(20)+8, r.Int63n(20)+8
		src := hpf.MustNewArray2D(sg, sn0, sn1)
		dst := hpf.MustNewArray2D(dg, dn0, dn1)
		for i := int64(0); i < sn0; i++ {
			for j := int64(0); j < sn1; j++ {
				src.Set(i, j, float64(i*1000+j))
			}
		}
		c0 := r.Int63n(min(sn0, dn0)) + 1
		c1 := r.Int63n(min(sn1, dn1)) + 1
		srcRect := randomRectIn(r, c0, c1, sn0, sn1)
		dstRect := randomRectIn(r, c0, c1, dn0, dn1)

		m := machine.MustNew(int(max(sg.Procs(), dg.Procs())))
		if err := Copy2D(m, dst, dstRect, src, srcRect); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for t0 := int64(0); t0 < c0; t0++ {
			for t1 := int64(0); t1 < c1; t1++ {
				want := src.Get(srcRect[0].Element(t0), srcRect[1].Element(t1))
				got := dst.Get(dstRect[0].Element(t0), dstRect[1].Element(t1))
				if got != want {
					t.Fatalf("trial %d (%v = %v) at (%d,%d): %v, want %v",
						trial, dstRect, srcRect, t0, t1, got, want)
				}
			}
		}
	}
}

func TestTranspose2DRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for trial := 0; trial < 50; trial++ {
		sg, dg := randomGrid(r), randomGrid(r)
		sn0, sn1 := r.Int63n(16)+8, r.Int63n(16)+8
		dn0, dn1 := r.Int63n(16)+8, r.Int63n(16)+8
		src := hpf.MustNewArray2D(sg, sn0, sn1)
		dst := hpf.MustNewArray2D(dg, dn0, dn1)
		for i := int64(0); i < sn0; i++ {
			for j := int64(0); j < sn1; j++ {
				src.Set(i, j, float64(i*1000+j))
			}
		}
		// For a transpose: dst axis 0 pairs with src dim 1 and vice versa.
		c0 := r.Int63n(min(dn0, sn1)) + 1
		c1 := r.Int63n(min(dn1, sn0)) + 1
		dstRect := randomRectIn(r, c0, c1, dn0, dn1)
		srcRect := randomRectIn(r, c1, c0, sn0, sn1)

		m := machine.MustNew(int(max(sg.Procs(), dg.Procs())))
		if err := Transpose2D(m, dst, dstRect, src, srcRect); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for t0 := int64(0); t0 < c0; t0++ {
			for t1 := int64(0); t1 < c1; t1++ {
				want := src.Get(srcRect[0].Element(t1), srcRect[1].Element(t0))
				got := dst.Get(dstRect[0].Element(t0), dstRect[1].Element(t1))
				if got != want {
					t.Fatalf("trial %d at (%d,%d): %v, want %v", trial, t0, t1, got, want)
				}
			}
		}
	}
}

func TestTransposeWholeMatrix(t *testing.T) {
	g := dist.MustNewGrid(dist.MustNew(2, 3), dist.MustNew(2, 2))
	a := hpf.MustNewArray2D(g, 10, 14)
	b := hpf.MustNewArray2D(g, 14, 10)
	for i := int64(0); i < 10; i++ {
		for j := int64(0); j < 14; j++ {
			a.Set(i, j, float64(i*100+j))
		}
	}
	rectA, _ := section.NewRect(section.MustNew(0, 9, 1), section.MustNew(0, 13, 1))
	rectB, _ := section.NewRect(section.MustNew(0, 13, 1), section.MustNew(0, 9, 1))
	m := machine.MustNew(int(g.Procs()))
	if err := Transpose2D(m, b, rectB, a, rectA); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		for j := int64(0); j < 14; j++ {
			if b.Get(j, i) != a.Get(i, j) {
				t.Fatalf("B(%d,%d) = %v != A(%d,%d) = %v", j, i, b.Get(j, i), i, j, a.Get(i, j))
			}
		}
	}
}

func TestPlan2DValidation(t *testing.T) {
	g := dist.MustNewGrid(dist.MustNew(2, 2), dist.MustNew(2, 2))
	ext := []int64{10, 10}
	rect, _ := section.NewRect(section.MustNew(0, 4, 1), section.MustNew(0, 4, 1))
	small, _ := section.NewRect(section.MustNew(0, 3, 1), section.MustNew(0, 4, 1))
	if _, err := NewPlan2D(g, ext, rect, g, ext, small, [2]int{0, 1}); err == nil {
		t.Error("size mismatch should fail")
	}
	oob, _ := section.NewRect(section.MustNew(0, 14, 1), section.MustNew(0, 4, 1))
	if _, err := NewPlan2D(g, ext, oob, g, ext, oob, [2]int{0, 1}); err == nil {
		t.Error("out of bounds should fail")
	}
	if _, err := NewPlan2D(g, ext, rect, g, ext, rect, [2]int{0, 0}); err == nil {
		t.Error("bad perm should fail")
	}
	g1 := dist.MustNewGrid(dist.MustNew(2, 2))
	if _, err := NewPlan2D(g1, ext, rect, g, ext, rect, [2]int{0, 1}); err == nil {
		t.Error("rank-1 grid should fail")
	}
	// Machine too small.
	src := hpf.MustNewArray2D(g, 10, 10)
	dst := hpf.MustNewArray2D(g, 10, 10)
	m := machine.MustNew(2)
	if err := Copy2D(m, dst, rect, src, rect); err == nil {
		t.Error("machine smaller than grids should fail")
	}
	// Arrays whose extents or grids differ from the planned ones.
	plan, err := NewPlan2D(g, ext, rect, g, ext, rect, [2]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	m = machine.MustNew(int(g.Procs()))
	other := dist.MustNewGrid(dist.MustNew(2, 3), dist.MustNew(2, 2))
	for _, c := range []struct {
		name     string
		dst, src *hpf.Array2D
	}{
		{"dst extents", hpf.MustNewArray2D(g, 10, 12), src},
		{"src extents", dst, hpf.MustNewArray2D(g, 12, 10)},
		{"dst grid", hpf.MustNewArray2D(other, 10, 10), src},
		{"src grid", dst, hpf.MustNewArray2D(other, 10, 10)},
	} {
		if err := plan.Execute(m, c.dst, c.src); err == nil {
			t.Errorf("%s mismatch should fail", c.name)
		}
	}
	// A grid built separately with the same per-axis layouts matches.
	same := dist.MustNewGrid(dist.MustNew(2, 2), dist.MustNew(2, 2))
	if err := plan.Execute(m, hpf.MustNewArray2D(same, 10, 10), src); err != nil {
		t.Errorf("matching arrays: %v", err)
	}
}

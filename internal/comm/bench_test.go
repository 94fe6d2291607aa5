package comm

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
)

// BenchmarkNewPlan measures closed-form communication-set planning: all
// (sender, receiver) transfer sets for a 100k-element strided copy
// between different cyclic(k) distributions, with no per-element work.
func BenchmarkNewPlan(b *testing.B) {
	dstL := dist.MustNew(32, 64)
	srcL := dist.MustNew(32, 16)
	n := int64(100_000)
	dstSec := section.Section{Lo: 0, Hi: 3*n - 3, Stride: 3}
	srcSec := section.Section{Lo: 5, Hi: 5 + 7*(n-1), Stride: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := NewPlan(dstL, 3*n, dstSec, srcL, 8*n, srcSec)
		if err != nil {
			b.Fatal(err)
		}
		if plan.TotalVolume() != n {
			b.Fatalf("volume %d", plan.TotalVolume())
		}
	}
}

// BenchmarkCopyExecute measures the full plan + pack + exchange + unpack
// path on the simulated machine.
func BenchmarkCopyExecute(b *testing.B) {
	layout := dist.MustNew(8, 16)
	m := machine.MustNew(8)
	const n = 16384
	src := hpf.MustNewArray(layout, n)
	dst := hpf.MustNewArray(dist.MustNew(8, 4), n)
	for i := int64(0); i < n; i++ {
		src.Set(i, float64(i))
	}
	sec := section.Section{Lo: 0, Hi: n - 1, Stride: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Copy(m, dst, sec, src, sec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranspose2D measures a whole distributed transpose.
func BenchmarkTranspose2D(b *testing.B) {
	g := dist.MustNewGrid(dist.MustNew(2, 8), dist.MustNew(2, 8))
	const n = 128
	src := hpf.MustNewArray2D(g, n, n)
	dst := hpf.MustNewArray2D(g, n, n)
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			src.Set(i, j, float64(i*n+j))
		}
	}
	whole := section.Section{Lo: 0, Hi: n - 1, Stride: 1}
	rect, _ := section.NewRect(whole, whole)
	m := machine.MustNew(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Transpose2D(m, dst, rect, src, rect); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJacobiSweep measures one sweep of perfbench's jacobi shape:
// points 19:n-20:19 of a cyclic(16) array over 4 processors, 8,192 of
// them, each updated from its neighbours ±19 by a Combine, a MapSection
// and a Copy. Every pack and unpack runs with a non-unit step.
func BenchmarkJacobiSweep(b *testing.B) {
	const stride, points = 19, 8192
	layout := dist.MustNew(4, 16)
	m := machine.MustNew(4)
	n := int64(stride*(points+1) + 1)
	x := hpf.MustNewArray(layout, n)
	tmp := hpf.MustNewArray(layout, n)
	for i := int64(0); i < n; i++ {
		x.Set(i, float64(i%7))
	}
	interior := section.MustNew(stride, n-1-stride, stride)
	left := section.MustNew(0, n-1-2*stride, stride)
	right := section.MustNew(2*stride, n-1, stride)
	half := func(v float64) float64 { return 0.5 * v }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Combine(m, tmp, interior, x, left, x, right, Add); err != nil {
			b.Fatal(err)
		}
		if err := tmp.MapSection(interior, half); err != nil {
			b.Fatal(err)
		}
		if err := Copy(m, x, interior, tmp, interior); err != nil {
			b.Fatal(err)
		}
	}
}

package hpf

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/section"
)

// BenchmarkFillSection measures a strided distributed fill through the
// AM-table node code (tables constructed per call, as at run time).
func BenchmarkFillSection(b *testing.B) {
	a := MustNewArray(dist.MustNew(32, 64), 1<<20)
	sec := section.MustNew(5, 1<<20-1, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.FillSection(sec, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetSet measures single-element access through the
// distribution (the slow path node code avoids).
func BenchmarkGetSet(b *testing.B) {
	a := MustNewArray(dist.MustNew(32, 64), 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := int64(i) % (1 << 20)
		a.Set(idx, a.Get(idx)+1)
	}
}

// rectBenchCase is a 1024×1024 array over a 2×2 grid of cyclic(16) ×
// cyclic(8), with a 3 × 5 strided section.
func rectBenchCase() (*Array2D, section.Rect) {
	g := dist.MustNewGrid(dist.MustNew(2, 16), dist.MustNew(2, 8))
	a := MustNewArray2D(g, 1024, 1024)
	rect, err := section.NewRect(section.MustNew(1, 1022, 3), section.MustNew(2, 1021, 5))
	if err != nil {
		panic(err)
	}
	return a, rect
}

// BenchmarkSumRect measures a warm 2-D strided sum.
func BenchmarkSumRect(b *testing.B) {
	a, rect := rectBenchCase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SumRect(rect); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFillRect measures a warm 2-D strided fill.
func BenchmarkFillRect(b *testing.B) {
	a, rect := rectBenchCase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.FillRect(rect, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSectionOps measures each warm section op on every kernel
// family, so a change to one kind's traversal shows up under its name.
func BenchmarkSectionOps(b *testing.B) {
	for _, tc := range kernelFamilies() {
		a := MustNewArray(dist.MustNew(tc.p, tc.k), tc.n)
		sec := tc.sec
		if err := a.FillSection(sec, 1); err != nil {
			b.Fatalf("%s: warm-up: %v", tc.name, err)
		}
		b.Run(tc.name+"/fill", func(b *testing.B) {
			for b.Loop() {
				if err := a.FillSection(sec, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/map", func(b *testing.B) {
			for b.Loop() {
				if err := a.MapSection(sec, mapAdd1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/sum", func(b *testing.B) {
			for b.Loop() {
				if _, err := a.SumSection(sec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Benchmarks regenerating the paper's evaluation section with the
// standard testing.B machinery. One benchmark family per table/figure:
//
//	BenchmarkTable1   — AM-table construction, Lattice vs Sorting
//	                    (k × stride grid of Table 1; its s=7 sub-benchmarks
//	                    are the data Figure 7 plots)
//	BenchmarkTable2   — node-code execution time for the Figure 8 shapes
//	BenchmarkAblation — design-choice ablations (radix vs comparison sort,
//	                    table-free walker vs tables, start-scan share)
//
// Each Table 1 iteration performs the paper's unit of work: constructing
// the table on all 32 processors (times were reported as the max over
// processors; the per-processor cost is ns/op divided by 32).
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/plancache"
	"repro/internal/section"
)

const benchProcs = 32 // the paper's processor count

func table1Problem(k, s int64, m int64) core.Problem {
	return core.Problem{P: benchProcs, K: k, L: 0, S: s, M: m}
}

// runAllProcs constructs the AM table for every processor, the unit of
// work one Table 1 measurement covers.
func runAllProcs(b *testing.B, f func(core.Problem) (core.Sequence, error), k, s int64) {
	b.Helper()
	var total int
	for m := int64(0); m < benchProcs; m++ {
		seq, err := f(table1Problem(k, s, m))
		if err != nil {
			b.Fatal(err)
		}
		total += len(seq.Gaps)
	}
	if total == 0 {
		b.Fatal("no work performed")
	}
}

func BenchmarkTable1(b *testing.B) {
	for _, k := range bench.Table1Ks() {
		for _, sc := range bench.Table1Strides() {
			s := sc.Stride(k, benchProcs*k)
			b.Run(fmt.Sprintf("k=%d/%s/Lattice", k, sc.Label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runAllProcs(b, core.Lattice, k, s)
				}
			})
			b.Run(fmt.Sprintf("k=%d/%s/Sorting", k, sc.Label), func(b *testing.B) {
				sorter := core.Sorting
				if k >= 64 {
					sorter = core.SortingRadix // mirrors the original's switch
				}
				for i := 0; i < b.N; i++ {
					runAllProcs(b, sorter, k, s)
				}
			})
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	const elems = 10_000 // assignments per processor, as in Section 6.2
	for _, tc := range bench.Table2Cases() {
		for _, sh := range bench.Shapes() {
			b.Run(fmt.Sprintf("k=%d/s=%d/%s", tc.K, tc.S, sh), func(b *testing.B) {
				w, err := bench.BuildWorkload(benchProcs, tc.K, tc.S, 0, elems)
				if err == nil {
					err = w.BuildTables()
				}
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n, err := w.RunShape(sh)
					if err != nil {
						b.Fatal(err)
					}
					if n != elems {
						b.Fatalf("wrote %d of %d", n, elems)
					}
				}
			})
		}
	}
}

// BenchmarkAblation isolates the design choices DESIGN.md calls out.
func BenchmarkAblation(b *testing.B) {
	// (1) The sort inside the baseline: comparison vs radix. The paper
	// notes the baseline switched to radix at k >= 64 and that an in-place
	// comparison sort would widen the lattice algorithm's lead.
	for _, k := range []int64{64, 256, 512} {
		b.Run(fmt.Sprintf("sorting-comparison/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAllProcs(b, core.Sorting, k, 7)
			}
		})
		b.Run(fmt.Sprintf("sorting-radix/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAllProcs(b, core.SortingRadix, k, 7)
			}
		})
	}
	// (2) Table-free generation (walker) vs precomputed table: the
	// space/time trade-off of Section 6.2.
	const elems = 10_000
	for _, k := range []int64{32, 256} {
		wTab, err := bench.BuildWorkload(benchProcs, k, 15, 0, elems)
		if err == nil {
			err = wTab.BuildTables()
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("gen-table/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wTab.RunShape(bench.ShapeD); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gen-walker/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wTab.RunShape(bench.ShapeWalker); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// (3) Start-scan share: the O(k) scan and extended Euclid that both
	// methods share (Figure 5 lines 3-11), measured via the Count API that
	// performs exactly that work.
	for _, k := range []int64{64, 512} {
		b.Run(fmt.Sprintf("start-scan/k=%d", k), func(b *testing.B) {
			pr := table1Problem(k, 7, benchProcs-1)
			for i := 0; i < b.N; i++ {
				if _, err := pr.Count(1 << 40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCachedVsUncached runs op as two sub-benchmarks: Uncached clears
// every runtime cache before each iteration (full planning cost every
// time), Cached warms the caches once and then measures the steady
// state. Both report allocations.
func benchCachedVsUncached(b *testing.B, op func() error) {
	b.Helper()
	reset := func() {
		hpf.ResetSectionPlanCache()
		comm.ResetPlanCache()
		comm.ResetPlanCache2D()
		plancache.ResetTables()
	}
	b.Run("Uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reset()
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Cached", func(b *testing.B) {
		reset()
		if err := op(); err != nil { // warm-up
			b.Fatal(err)
		}
		warm := totalMisses()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if steady := totalMisses() - warm; steady != 0 {
			b.Fatalf("steady state missed the caches %d times, want 0", steady)
		}
	})
}

func totalMisses() int64 {
	return hpf.SectionPlanCacheStats().Misses +
		comm.PlanCacheStats().Misses +
		comm.PlanCache2DStats().Misses +
		plancache.TableStats().Misses
}

// BenchmarkSectionAssignCache: A(1:n-2:3) = v plus a pointwise map —
// pure address generation, no communication.
func BenchmarkSectionAssignCache(b *testing.B) {
	const n = benchProcs * 32
	a := hpf.MustNewArray(dist.MustNew(benchProcs, 8), n)
	sec := section.Section{Lo: 1, Hi: n - 2, Stride: 3}
	benchCachedVsUncached(b, func() error {
		if err := a.FillSection(sec, 1); err != nil {
			return err
		}
		return a.MapSection(sec, func(v float64) float64 { return v * 0.5 })
	})
}

// BenchmarkJacobiIterationCache: one sweep of the Jacobi example —
// Combine of shifted sections, scale, copy back.
func BenchmarkJacobiIterationCache(b *testing.B) {
	const n = benchProcs * 16
	m := machine.MustNew(benchProcs)
	layout := dist.MustNew(benchProcs, 4)
	x := hpf.MustNewArray(layout, n)
	tmp := hpf.MustNewArray(layout, n)
	interior := section.Section{Lo: 1, Hi: n - 2, Stride: 1}
	left := section.Section{Lo: 0, Hi: n - 3, Stride: 1}
	right := section.Section{Lo: 2, Hi: n - 1, Stride: 1}
	benchCachedVsUncached(b, func() error {
		if err := comm.Combine(m, tmp, interior, x, left, x, right, comm.Add); err != nil {
			return err
		}
		if err := tmp.MapSection(interior, func(v float64) float64 { return 0.5 * v }); err != nil {
			return err
		}
		return comm.Copy(m, x, interior, tmp, interior)
	})
}

// BenchmarkRedistributeCache: a cyclic(4) ⇄ cyclic(7) bounce.
func BenchmarkRedistributeCache(b *testing.B) {
	const n = benchProcs * 16
	m := machine.MustNew(benchProcs)
	ra := hpf.MustNewArray(dist.MustNew(benchProcs, 4), n)
	rb := hpf.MustNewArray(dist.MustNew(benchProcs, 7), n)
	whole := section.Section{Lo: 0, Hi: n - 1, Stride: 1}
	benchCachedVsUncached(b, func() error {
		if err := comm.Copy(m, rb, whole, ra, whole); err != nil {
			return err
		}
		return comm.Copy(m, ra, whole, rb, whole)
	})
}

// BenchmarkSequenceInto compares the allocating Sequence call with the
// buffer-reusing SequenceInto variant on a cached TableSet.
func BenchmarkSequenceInto(b *testing.B) {
	for _, k := range []int64{32, 256} {
		ts, err := core.NewTableSet(benchProcs, k, 0, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d/Sequence", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seq, err := ts.Sequence(0)
				if err != nil {
					b.Fatal(err)
				}
				sinkGaps += len(seq.Gaps)
			}
		})
		b.Run(fmt.Sprintf("k=%d/SequenceInto", k), func(b *testing.B) {
			b.ReportAllocs()
			var buf []int64
			for i := 0; i < b.N; i++ {
				seq, err := ts.SequenceInto(0, buf)
				if err != nil {
					b.Fatal(err)
				}
				buf = seq.Gaps
				sinkGaps += len(seq.Gaps)
			}
		})
	}
}

var sinkGaps int

package comm

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
)

// BenchmarkNewPlan measures communication-set planning: all (sender,
// receiver) transfer sets of a copy between different distributions.
// The planner takes one step per transfer section, min(n, lcm of the two
// position periods) of them: 2,048 for the strided copy, and one per
// element (65,536) for block → cyclic(64), whose block side's period is
// the whole array, and for cyclic(512) → cyclic(511), whose lcm period
// is 4,186,112.
func BenchmarkNewPlan(b *testing.B) {
	const whole = 65536
	all := section.Section{Lo: 0, Hi: whole - 1, Stride: 1}
	cases := []struct {
		name           string
		dstL, srcL     dist.Layout
		dstN, srcN     int64
		dstSec, srcSec section.Section
	}{
		{"strided", dist.MustNew(32, 64), dist.MustNew(32, 16), 300_000, 800_000,
			section.Section{Lo: 0, Hi: 299_997, Stride: 3},
			section.Section{Lo: 5, Hi: 5 + 7*99_999, Stride: 7}},
		{"block-cyclic64", dist.MustNew(16, 64), dist.MustNew(16, whole/16), whole, whole, all, all},
		{"cyclic512-cyclic511", dist.MustNew(16, 511), dist.MustNew(16, 512), whole, whole, all, all},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan, err := NewPlan(c.dstL, c.dstN, c.dstSec, c.srcL, c.srcN, c.srcSec)
				if err != nil {
					b.Fatal(err)
				}
				if plan.TotalVolume() != c.dstSec.Count() {
					b.Fatalf("volume %d", plan.TotalVolume())
				}
			}
		})
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

// jacobiSweep builds perfbench's jacobi shape: points 19:n-20:19 of a
// cyclic(16) array over 4 processors, 8,192 of them, each updated from
// its neighbours ±19 by a Combine, a MapSection and a Copy. Every pack
// and unpack runs with a non-unit step. It returns one sweep.
func jacobiSweep(tb testing.TB) func() {
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
	return func() {
		if err := Combine(m, tmp, interior, x, left, x, right, Add); err != nil {
			tb.Fatal(err)
		}
		if err := tmp.MapSection(interior, half); err != nil {
			tb.Fatal(err)
		}
		if err := Copy(m, x, interior, tmp, interior); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkJacobiSweep measures one sweep of perfbench's jacobi shape.
func BenchmarkJacobiSweep(b *testing.B) {
	sweep := jacobiSweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// TestJacobiSweepAllocs guards the steady-state allocation count of one
// jacobi sweep: plans come from the cache, payload buffers from the
// pool, and each machine Run takes pooled coroutines.
func TestJacobiSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	sweep := jacobiSweep(t)
	sweep() // plan and warm the caches
	if n := testing.AllocsPerRun(50, sweep); n > 32 {
		t.Errorf("one jacobi sweep allocates %v times, want at most 32", n)
	}
}

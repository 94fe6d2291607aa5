package hpf

import (
	"math"
	"testing"

	"repro/internal/codegen"
	"repro/internal/dist"
	"repro/internal/section"
)

// kernelFamily is one (layout, section) pattern that the selector maps
// to a specific specialized kernel kind.
type kernelFamily struct {
	name   string
	p, k   int64
	n      int64
	sec    section.Section
	want   codegen.KernelKind
	onProc int64 // processor whose plan must have the wanted kind
}

// kernelFamilies covers one section per specialized kernel family.
func kernelFamilies() []kernelFamily {
	return []kernelFamily{
		{"cyclic1-constgap", 4, 1, 4096, section.MustNew(0, 4095, 3), codegen.KindConstGap, 0},
		{"unit-stride-constgap", 4, 8, 4096, section.MustNew(0, 4095, 1), codegen.KindConstGap, 0},
		{"block-constgap", 4, 1024, 4096, section.MustNew(0, 4095, 3), codegen.KindConstGap, 1},
		{"small-period-unrolled", 4, 8, 4096, section.MustNew(4, 4090, 9), codegen.KindUnrolled, 1},
		{"dense-rowstride", 4, 16, 9000, section.MustNew(0, 8999, 5), codegen.KindRowStride, 1},
		// Sparse long-period sections run the generic 8(b) gap walk.
		{"sparse-generic", 4, 16, 9000, section.MustNew(5, 8999, 23), codegen.KindGeneric, 2},
	}
}

// TestSectionPlanKernelSelection pins the kernel family each layout
// compiles to.
func TestSectionPlanKernelSelection(t *testing.T) {
	for _, tc := range kernelFamilies() {
		ResetSectionPlanCache()
		a := MustNewArray(dist.MustNew(tc.p, tc.k), tc.n)
		sp, err := a.cachedSectionPlans(tc.sec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := sp.plans[tc.onProc].kernel.Kind()
		if got != tc.want {
			t.Errorf("%s: proc %d compiled %v, want %v", tc.name, tc.onProc, got, tc.want)
		}
	}
}

// TestSectionOpsThroughKernels runs fill/map/sum for every kernel family
// and checks the results element by element against Get.
func TestSectionOpsThroughKernels(t *testing.T) {
	for _, tc := range kernelFamilies() {
		ResetSectionPlanCache()
		a := MustNewArray(dist.MustNew(tc.p, tc.k), tc.n)
		if err := a.FillSection(tc.sec, 2); err != nil {
			t.Fatalf("%s: fill: %v", tc.name, err)
		}
		if err := a.MapSection(tc.sec, func(x float64) float64 { return x*10 + 1 }); err != nil {
			t.Fatalf("%s: map: %v", tc.name, err)
		}
		cnt := tc.sec.Count()
		for j := int64(0); j < cnt; j++ {
			if got := a.Get(tc.sec.Element(j)); got != 21 {
				t.Fatalf("%s: element %d = %g, want 21", tc.name, tc.sec.Element(j), got)
			}
		}
		// Off-section elements stay untouched.
		in := map[int64]bool{}
		for j := int64(0); j < cnt; j++ {
			in[tc.sec.Element(j)] = true
		}
		for i := int64(0); i < tc.n; i++ {
			if !in[i] && a.Get(i) != 0 {
				t.Fatalf("%s: off-section element %d = %g, want 0", tc.name, i, a.Get(i))
			}
		}
		sum, err := a.SumSection(tc.sec)
		if err != nil {
			t.Fatalf("%s: sum: %v", tc.name, err)
		}
		if want := 21 * float64(cnt); math.Abs(sum-want) > 1e-6 {
			t.Fatalf("%s: sum = %g, want %g", tc.name, sum, want)
		}
	}
}

// mapAdd1 is package-level so the AllocsPerRun closures below do not
// capture anything that would itself allocate.
func mapAdd1(x float64) float64 { return x + 1 }

// TestWarmSectionOpsZeroAllocs guards the acceptance criterion that the
// warm section ops stay allocation free through the kernel dispatch,
// for every kernel family.
func TestWarmSectionOpsZeroAllocs(t *testing.T) {
	for _, tc := range kernelFamilies() {
		a := MustNewArray(dist.MustNew(tc.p, tc.k), tc.n)
		sec := tc.sec
		// Warm the plan cache (compiles the kernels once).
		if err := a.FillSection(sec, 1); err != nil {
			t.Fatalf("%s: warm-up: %v", tc.name, err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := a.FillSection(sec, 3); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: warm FillSection allocates %v/op, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := a.MapSection(sec, mapAdd1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: warm MapSection allocates %v/op, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := a.SumSection(sec); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: warm SumSection allocates %v/op, want 0", tc.name, n)
		}
	}
}

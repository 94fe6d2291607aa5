package codegen

import (
	"math"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// kernelSpec assembles the plan-compile-time Spec for a fixture.
func kernelSpec(f *fixture) Spec {
	return Spec{
		Problem: f.pr,
		Start:   f.start,
		Last:    f.last,
		Count:   int64(len(f.wantAddrs)),
		Gaps:    f.gaps,
	}
}

// kernelProblems extends testProblems with cases that exercise every
// specialized family.
func kernelProblems() []struct {
	pr core.Problem
	u  int64
} {
	out := testProblems()
	add := func(p, k, l, s, m, u int64) {
		out = append(out, struct {
			pr core.Problem
			u  int64
		}{core.Problem{P: p, K: k, L: l, S: s, M: m}, u})
	}
	add(4, 1, 0, 3, 2, 4000)    // cyclic(1): k = 1 → const gap
	add(4, 100, 0, 3, 1, 399)   // block-like: whole range in row 0 → const gap s
	add(4, 16, 0, 3, 1, 9000)   // s ≤ k but pk−k ≡ 0 (mod s): uniform → const gap
	add(4, 16, 0, 5, 1, 9000)   // s ≤ k, period 16, non-uniform → row stride
	add(4, 16, 5, 23, 2, 9000)  // s > k, period 16 → generic
	add(4, 16, 0, 24, 3, 9000)  // s > k, gcd(24,64)=8 → short cycles
	add(3, 5, 2, 4, 1, 777)     // period ≤ 8 → unrolled
	add(8, 8, 1, 13, 6, 100000) // unrolled, long run
	return out
}

func TestKernelSelection(t *testing.T) {
	cases := []struct {
		p, k, l, s, m, u int64
		want             KernelKind
	}{
		{2, 3, 0, 1, 1, 50, KindConstGap},     // unit stride: uniform gaps
		{4, 1, 0, 3, 2, 4000, KindConstGap},   // cyclic(1)
		{4, 100, 0, 3, 1, 399, KindConstGap},  // block row 0 only
		{4, 8, 4, 9, 1, 320, KindUnrolled},    // paper example, period 8
		{3, 5, 2, 4, 1, 777, KindUnrolled},    // period ≤ 8
		{4, 16, 0, 3, 1, 9000, KindConstGap},  // s ≤ k but the boundary gap is s too
		{4, 16, 0, 5, 1, 9000, KindRowStride}, // s ≤ k, period 16, non-uniform
		{4, 16, 5, 23, 2, 9000, KindGeneric},  // s > k, period 16: nothing more specific
		{4, 2, 3, 8, 0, 100, KindNone},        // empty processor
	}
	for _, tc := range cases {
		pr := core.Problem{P: tc.p, K: tc.k, L: tc.l, S: tc.s, M: tc.m}
		f := newFixture(t, pr, tc.u)
		sp := kernelSpec(f)
		kn := Select(sp)
		if kn.Kind() != tc.want {
			t.Errorf("%+v u=%d: selected %v, want %v", pr, tc.u, kn.Kind(), tc.want)
		}
		// Selection is a pure function of the spec.
		if again := Select(sp); again.Kind() != kn.Kind() {
			t.Errorf("%+v: selection not deterministic: %v then %v", pr, kn.Kind(), again.Kind())
		}
		// Each selection is counted once, under the kind it chose.
		before := telSelected[kn.Kind()].Value()
		Select(sp)
		if d := telSelected[kn.Kind()].Value() - before; d != 1 {
			t.Errorf("%+v: Select moved kernel_selected.%v by %d, want 1", pr, kn.Kind(), d)
		}
	}
}

func TestKernelOpsMatchGroundTruth(t *testing.T) {
	for _, tc := range kernelProblems() {
		f := newFixture(t, tc.pr, tc.u)
		sp := kernelSpec(f)
		n := int64(len(f.wantAddrs))
		for _, kn := range Candidates(sp) {
			kn := kn
			label := kn.Kind().String()
			if kn.Count() != n {
				t.Errorf("%+v u=%d %s: Count() = %d, want %d", tc.pr, tc.u, label, kn.Count(), n)
			}

			// Fill writes exactly the owned element set.
			f.verify(t, label+"/fill", kn.Fill(f.mem, 1.0))

			// Map applies in place over the same set.
			f.verify(t, label+"/map", kn.Map(f.mem, func(x float64) float64 { return x + 1 }))

			// Sum sees every owned element exactly once.
			var want float64
			for i, a := range f.wantAddrs {
				f.mem[a] = float64(i + 1)
				want += float64(i + 1)
			}
			got, cnt := kn.Sum(f.mem)
			if cnt != n || math.Abs(got-want) > 1e-9 {
				t.Errorf("%+v u=%d %s: Sum = (%v, %d), want (%v, %d)", tc.pr, tc.u, label, got, cnt, want, n)
			}

			clear(f.mem)
		}
	}
}

func TestKernelEmpty(t *testing.T) {
	mem := make([]float64, 8)
	kn := Select(Spec{Problem: core.Problem{P: 4, K: 2, L: 3, S: 8, M: 0}, Start: -1, Last: -1})
	if kn.Kind() != KindNone {
		t.Fatalf("empty spec selected %v", kn.Kind())
	}
	if n := kn.Fill(mem, 1); n != 0 {
		t.Errorf("Fill on empty = %d", n)
	}
	if n := kn.Map(mem, func(x float64) float64 { return x }); n != 0 {
		t.Errorf("Map on empty = %d", n)
	}
	if s, n := kn.Sum(mem); s != 0 || n != 0 {
		t.Errorf("Sum on empty = (%v, %d)", s, n)
	}
}

func TestKernelKindString(t *testing.T) {
	want := map[KernelKind]string{
		KindNone:       "none",
		KindConstGap:   "constgap",
		KindUnrolled:   "unrolled",
		KindRowStride:  "rowstride",
		KindGeneric:    "generic",
		numKernelKinds: "invalid",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("KernelKind(%d).String() = %q, want %q", k, k.String(), w)
		}
	}
}

// TestAddressIteratorsInline pins what keeps Map, Sum and Walk as fast
// as hand-written loops: the compiler inlines each address iterator,
// and the loop body with it, at all three call sites. An iterator that
// outgrows the inlining budget still allocates nothing (its body
// closure stays on the stack), so only the compiler's own report shows
// the per-element call it would cost.
func TestAddressIteratorsInline(t *testing.T) {
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(gotool, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Skipf("cannot run %s build -gcflags=-m: %v\n%s", gotool, err, out)
	}
	report := string(out)
	for _, it := range []string{"constAddrs", "rowAddrs", "cycleAddrs"} {
		call := "inlining call to (*Kernel)." + it + "\n"
		if n := strings.Count(report, call); n != 3 {
			t.Errorf("%s is inlined at %d call sites, want 3 (Map, Sum, Walk)", it, n)
		}
	}
	for _, op := range []string{"Map", "Sum", "Walk"} {
		for _, r := range []string{"-range1", "-range2", "-range3"} {
			if call := "inlining call to (*Kernel)." + op + r + "\n"; !strings.Contains(report, call) {
				t.Errorf("the loop body %s%s is not inlined", op, r)
			}
		}
	}
}

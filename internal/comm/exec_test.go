package comm

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
)

func TestDetectRun(t *testing.T) {
	cases := []struct {
		name   string
		pa, ua []int64
		ok     bool
	}{
		{"empty", nil, nil, true},
		{"single", []int64{7}, []int64{3}, true},
		{"unit", []int64{4, 5, 6}, []int64{9, 10, 11}, true},
		{"strided", []int64{0, 3, 6, 9}, []int64{5, 7, 9, 11}, true},
		{"descending", []int64{9, 6, 3}, []int64{2, 4, 6}, true},
		{"pack-breaks", []int64{0, 3, 7}, []int64{5, 7, 9}, false},
		{"unpack-breaks", []int64{0, 3, 6}, []int64{5, 7, 10}, false},
	}
	for _, tc := range cases {
		run, ok := detectRun(tc.pa, tc.ua)
		if ok != tc.ok {
			t.Errorf("%s: detectRun ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if run.n != int64(len(tc.pa)) {
			t.Errorf("%s: run.n = %d, want %d", tc.name, run.n, len(tc.pa))
		}
		// Replay the run and compare against the original lists.
		a, u := run.packBase, run.unpackBase
		for i := int64(0); i < run.n; i++ {
			if a != tc.pa[i] || u != tc.ua[i] {
				t.Errorf("%s: replay diverges at %d: (%d,%d) want (%d,%d)",
					tc.name, i, a, u, tc.pa[i], tc.ua[i])
				break
			}
			a += run.packStep
			u += run.unpackStep
		}
	}
}

// TestExecPairModesAgree cross-checks the compiled pack/unpack paths —
// strided runs and arena-backed lists alike — against the uncompiled
// definition (walk the transfer sections, move element by element), over
// randomized cross-distribution plans.
func TestExecPairModesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	sawStrided, sawList := false, false
	for trial := 0; trial < 80; trial++ {
		pd, ps := r.Int63n(4)+1, r.Int63n(4)+1
		kd, ks := r.Int63n(6)+1, r.Int63n(6)+1
		dstL, srcL := dist.MustNew(pd, kd), dist.MustNew(ps, ks)
		count := r.Int63n(30) + 1
		ds, ss := r.Int63n(6)+1, r.Int63n(6)+1
		dstSec := section.Section{Lo: r.Int63n(10), Stride: ds}
		dstSec.Hi = dstSec.Lo + (count-1)*ds
		srcSec := section.Section{Lo: r.Int63n(10), Stride: ss}
		srcSec.Hi = srcSec.Lo + (count-1)*ss
		nd, ns := dstSec.Last()+1+r.Int63n(10), srcSec.Last()+1+r.Int63n(10)

		plan, err := NewPlan(dstL, nd, dstSec, srcL, ns, srcSec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e := plan.compiled()

		src := hpf.MustNewArray(srcL, ns)
		for i := int64(0); i < ns; i++ {
			src.Set(i, float64(i+1))
		}
		dst := hpf.MustNewArray(dstL, nd)

		for q := int64(0); q < plan.NSrc; q++ {
			for r2 := int64(0); r2 < plan.NDst; r2++ {
				if e.runs[q][r2].ok && e.count(q, r2) > 0 {
					sawStrided = true
				}
				if !e.runs[q][r2].ok {
					sawList = true
				}
				buf := e.packInto(nil, src.LocalMem(q), q, r2)
				if len(buf) != e.count(q, r2) {
					t.Fatalf("trial %d (%d→%d): packed %d, count says %d",
						trial, q, r2, len(buf), e.count(q, r2))
				}
				e.unpackFrom(dst.LocalMem(r2), buf, q, r2)
			}
		}
		for j := int64(0); j < count; j++ {
			want := float64(srcSec.Element(j) + 1)
			if got := dst.Get(dstSec.Element(j)); got != want {
				t.Fatalf("trial %d: dst(%d) = %v, want %v",
					trial, dstSec.Element(j), got, want)
			}
		}
	}
	if !sawStrided || !sawList {
		t.Fatalf("sweep did not exercise both modes: strided=%v list=%v", sawStrided, sawList)
	}
}

// TestWarmPackUnpackZeroAllocs guards the acceptance criterion that the
// compiled pack/unpack paths allocate nothing once the exec is built and
// the value buffer is pre-sized.
func TestWarmPackUnpackZeroAllocs(t *testing.T) {
	layout := dist.MustNew(4, 8)
	src := hpf.MustNewArray(layout, 640)
	dst := hpf.MustNewArray(layout, 640)
	dstSec := section.MustNew(4, 600, 9)
	srcSec := section.MustNew(0, int64(8*(dstSec.Count()-1)), 8)
	plan, err := NewPlan(layout, 640, dstSec, layout, 640, srcSec)
	if err != nil {
		t.Fatal(err)
	}
	e := plan.compiled()

	for q := int64(0); q < plan.NSrc; q++ {
		for r := int64(0); r < plan.NDst; r++ {
			q, r := q, r
			buf := make([]float64, 0, e.count(q, r))
			srcMem, dstMem := src.LocalMem(q), dst.LocalMem(r)
			if n := testing.AllocsPerRun(20, func() {
				buf = e.packInto(buf[:0], srcMem, q, r)
				e.unpackFrom(dstMem, buf, q, r)
			}); n != 0 {
				t.Errorf("pair (%d→%d): warm pack/unpack allocates %v/op, want 0", q, r, n)
			}
		}
	}
}

// TestExecuteStridedEndToEnd runs a full machine execution over a plan
// whose pairs compile to strided runs (unit-stride same-layout copy) and
// one that forces list mode, checking results either way.
func TestExecuteStridedEndToEnd(t *testing.T) {
	layout := dist.MustNew(4, 8)
	m := machine.MustNew(4)
	for _, stride := range []int64{1, 9} {
		src := hpf.MustNewArray(layout, 640)
		dst := hpf.MustNewArray(layout, 640)
		for i := int64(0); i < 640; i++ {
			src.Set(i, float64(i))
		}
		count := int64(60)
		sec := section.Section{Lo: 3, Hi: 3 + (count-1)*stride, Stride: stride}
		plan, err := NewPlan(layout, 640, sec, layout, 640, sec)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Execute(m, dst, src); err != nil {
			t.Fatal(err)
		}
		for j := int64(0); j < count; j++ {
			i := sec.Element(j)
			if got := dst.Get(i); got != float64(i) {
				t.Fatalf("stride %d: dst(%d) = %v, want %v", stride, i, got, float64(i))
			}
		}
	}
}

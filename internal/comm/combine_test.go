package comm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/section"
)

func TestAccumulateAdd(t *testing.T) {
	layout := dist.MustNew(4, 8)
	m := machine.MustNew(4)
	dst := hpf.MustNewArray(layout, 320)
	src := hpf.MustNewArray(dist.MustNew(4, 3), 320)
	for i := int64(0); i < 320; i++ {
		dst.Set(i, 100)
		src.Set(i, float64(i))
	}
	dstSec := section.MustNew(0, 90, 9)
	srcSec := section.MustNew(0, 20, 2)
	if err := Accumulate(m, dst, dstSec, src, srcSec, Add); err != nil {
		t.Fatal(err)
	}
	for j := int64(0); j < dstSec.Count(); j++ {
		want := 100 + float64(srcSec.Element(j))
		if got := dst.Get(dstSec.Element(j)); got != want {
			t.Errorf("dst(%d) = %v, want %v", dstSec.Element(j), got, want)
		}
	}
	if dst.Get(1) != 100 {
		t.Error("untouched element modified")
	}
}

func TestCombineThreeArrays(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		pa, pb, pd := r.Int63n(3)+1, r.Int63n(3)+1, r.Int63n(3)+1
		a := hpf.MustNewArray(dist.MustNew(pa, r.Int63n(5)+1), 200)
		b := hpf.MustNewArray(dist.MustNew(pb, r.Int63n(5)+1), 200)
		d := hpf.MustNewArray(dist.MustNew(pd, r.Int63n(5)+1), 200)
		for i := int64(0); i < 200; i++ {
			a.Set(i, float64(i))
			b.Set(i, float64(i)*10)
		}
		count := r.Int63n(15) + 1
		mk := func() section.Section {
			s := r.Int63n(5) + 1
			lo := r.Int63n(200 - (count-1)*s)
			return section.Section{Lo: lo, Hi: lo + (count-1)*s, Stride: s}
		}
		dSec, aSec, bSec := mk(), mk(), mk()
		m := machine.MustNew(int(max(pa, max(pb, pd))))
		if err := Combine(m, d, dSec, a, aSec, b, bSec, Add); err != nil {
			t.Fatal(err)
		}
		for j := int64(0); j < count; j++ {
			want := a.Get(aSec.Element(j)) + b.Get(bSec.Element(j))
			if got := d.Get(dSec.Element(j)); math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d pos %d: %v, want %v", trial, j, got, want)
			}
		}
	}
}

func TestCombineCustomOp(t *testing.T) {
	layout := dist.MustNew(2, 4)
	m := machine.MustNew(2)
	a := hpf.MustNewArray(layout, 40)
	b := hpf.MustNewArray(layout, 40)
	d := hpf.MustNewArray(layout, 40)
	for i := int64(0); i < 40; i++ {
		a.Set(i, float64(i))
		b.Set(i, 3)
	}
	sec := section.MustNew(0, 39, 1)
	mul := func(x, y float64) float64 { return x * y }
	if err := Combine(m, d, sec, a, sec, b, sec, mul); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		if d.Get(i) != float64(i)*3 {
			t.Fatalf("d(%d) = %v", i, d.Get(i))
		}
	}
}

func TestExecuteWithMachineTooSmall(t *testing.T) {
	layout := dist.MustNew(4, 2)
	m := machine.MustNew(2)
	a := hpf.MustNewArray(layout, 40)
	d := hpf.MustNewArray(layout, 40)
	sec := section.MustNew(0, 9, 1)
	if err := Accumulate(m, d, sec, a, sec, Add); err == nil {
		t.Error("machine smaller than layouts should fail")
	}
}

func TestReplaceOp(t *testing.T) {
	if Add(5, 7) != 12 {
		t.Error("Add wrong")
	}
}

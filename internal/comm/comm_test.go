package comm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/intmath"
	"repro/internal/machine"
	"repro/internal/section"
)

// oracleSide returns a layout, an array length and a count-element
// section in it: p ≤ 8, k up to 400 or a block layout, stride in
// ±[1, 20].
func oracleSide(r *rand.Rand, count int64) (dist.Layout, int64, section.Section) {
	stride := r.Int63n(20) + 1
	lo := r.Int63n(50)
	sec := section.Section{Lo: lo, Hi: lo + (count-1)*stride, Stride: stride}
	if r.Intn(2) == 0 {
		sec = section.Section{Lo: sec.Hi, Hi: lo, Stride: -stride}
	}
	n := max(sec.Lo, sec.Hi) + 1 + r.Int63n(50)
	p := r.Int63n(8) + 1
	if r.Intn(3) == 0 {
		l, err := dist.Block(p, n)
		if err != nil {
			panic(err)
		}
		return l, n, sec
	}
	return dist.MustNew(p, r.Int63n(400)+1), n, sec
}

// TestPlanMatchesOwnerWalk checks NewPlan against a brute-force owner
// walk over the positions, for random layouts (cyclic(k) with k up to
// 400 and block, either stride sign, empty sections) and for a
// whole-array cyclic(512) → cyclic(511) copy on 16 processors, whose lcm
// period is far longer than the array. Every position t must be in
// exactly one Transfers[q][r], with q the owner of srcSec(t) and r the
// owner of dstSec(t), and each pair's sections in ascending order of
// first position. There must be min(n, lcm(P_src, P_dst)) sections in
// all, where P = pk/gcd(|s|, pk) is a side's position period: the
// planner takes one step per section, so the count bounds its work. The
// compiled runs must match the walk's local addresses.
func TestPlanMatchesOwnerWalk(t *testing.T) {
	period := func(l dist.Layout, sec section.Section) int64 {
		return l.RowLen() / intmath.GCD(sec.Stride, l.RowLen())
	}
	// check returns whether the lcm period exceeds n.
	check := func(dstL dist.Layout, dn int64, dstSec section.Section,
		srcL dist.Layout, sn int64, srcSec section.Section) bool {
		plan, err := NewPlan(dstL, dn, dstSec, srcL, sn, srcSec)
		if err != nil {
			t.Fatal(err)
		}
		n := dstSec.Count()
		seen := make([]bool, n)
		var sections int64
		for q := int64(0); q < plan.NSrc; q++ {
			for r := int64(0); r < plan.NDst; r++ {
				for i, s := range plan.Transfers[q][r] {
					if i > 0 && s.Lo <= plan.Transfers[q][r][i-1].Lo {
						t.Fatalf("pair %d→%d: section %v follows %v", q, r, s, plan.Transfers[q][r][i-1])
					}
					sections++
					for _, tt := range s.Slice() {
						if tt < 0 || tt >= n || seen[tt] {
							t.Fatalf("pair %d→%d: position %d out of [0, %d) or planned twice", q, r, tt, n)
						}
						seen[tt] = true
						if so, do := srcL.Owner(srcSec.Element(tt)), dstL.Owner(dstSec.Element(tt)); so != q || do != r {
							t.Fatalf("position %d planned %d→%d, owners are %d→%d", tt, q, r, so, do)
						}
					}
				}
			}
		}
		for tt, ok := range seen {
			if !ok {
				t.Fatalf("position %d is in no transfer", tt)
			}
		}
		lcm, err := intmath.LCM(period(srcL, srcSec), period(dstL, dstSec))
		if err != nil {
			t.Fatal(err)
		}
		if want := min(n, lcm); sections != want {
			t.Fatalf("%d sections, want min(n = %d, lcm = %d) = %d", sections, n, lcm, want)
		}
		moves := make([]move, n)
		for i := range moves {
			gs, gd := srcSec.Element(int64(i)), dstSec.Element(int64(i))
			moves[i] = move{srcL.Owner(gs), srcL.Local(gs), dstL.Owner(gd), dstL.Local(gd)}
		}
		checkRuns(t, plan.compiled(), moves)
		return lcm > n
	}
	r := rand.New(rand.NewSource(4))
	var short, long int
	for trial := 0; trial < 300; trial++ {
		count := r.Int63n(3000)
		if trial%10 == 0 {
			count = 0
		}
		dstL, dn, dstSec := oracleSide(r, count)
		srcL, sn, srcSec := oracleSide(r, count)
		if check(dstL, dn, dstSec, srcL, sn, srcSec) {
			long++
		} else if count > 0 {
			short++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("trials cover lcm ≤ n %d times and lcm > n %d times", short, long)
	}
	const n = 65536
	whole := section.MustNew(0, n-1, 1)
	if !check(dist.MustNew(16, 511), n, whole, dist.MustNew(16, 512), n, whole) {
		t.Fatal("cyclic(512) → cyclic(511): lcm period within n")
	}
}

func TestPlanVolumes(t *testing.T) {
	dstL := dist.MustNew(4, 8)
	srcL := dist.MustNew(3, 5)
	dstSec := section.MustNew(0, 99, 1)
	srcSec := section.MustNew(0, 198, 2)
	plan, err := NewPlan(dstL, 200, dstSec, srcL, 200, srcSec)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.TotalVolume(); got != 100 {
		t.Errorf("TotalVolume = %d, want 100", got)
	}
	// Each position appears in exactly one (q, r) transfer.
	seen := make([]int, 100)
	for q := int64(0); q < plan.NSrc; q++ {
		for r := int64(0); r < plan.NDst; r++ {
			for _, s := range plan.Transfers[q][r] {
				for _, tt := range s.Slice() {
					seen[tt]++
				}
			}
		}
	}
	for tt, c := range seen {
		if c != 1 {
			t.Errorf("position %d in %d transfers", tt, c)
		}
	}
}

func TestPlanMismatchedSizes(t *testing.T) {
	l := dist.MustNew(2, 2)
	for _, c := range []struct {
		name        string
		dstN, srcN  int64
		dstSec, sec section.Section
	}{
		{"mismatched-counts", 100, 100, section.MustNew(0, 9, 1), section.MustNew(0, 9, 2)},
		{"destination-out-of-bounds", 5, 100, section.MustNew(0, 9, 1), section.MustNew(0, 9, 1)},
		{"source-out-of-bounds", 100, 5, section.MustNew(0, 9, 1), section.MustNew(0, 9, 1)},
		{"negative-size", -1, -1, section.MustNew(0, -2, 1), section.MustNew(0, -2, 1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewPlan(l, c.dstN, c.dstSec, l, c.srcN, c.sec); err == nil {
				t.Error("NewPlan should fail")
			}
		})
	}
}

func TestCopySameDistribution(t *testing.T) {
	layout := dist.MustNew(4, 8)
	m := machine.MustNew(4)
	src := hpf.MustNewArray(layout, 320)
	dst := hpf.MustNewArray(layout, 320)
	for i := int64(0); i < 320; i++ {
		src.Set(i, float64(i))
	}
	// dst(4:300:9) = src(0:264:8): same layout, strided sections.
	dstSec := section.MustNew(4, 300, 9)
	srcSec := section.MustNew(0, int64(8*(dstSec.Count()-1)), 8)
	if err := Copy(m, dst, dstSec, src, srcSec); err != nil {
		t.Fatal(err)
	}
	for j := int64(0); j < dstSec.Count(); j++ {
		want := float64(srcSec.Element(j))
		if got := dst.Get(dstSec.Element(j)); got != want {
			t.Errorf("dst(%d) = %v, want %v", dstSec.Element(j), got, want)
		}
	}
	// Untouched elements stay zero.
	if dst.Get(0) != 0 || dst.Get(319) != 0 {
		t.Error("untouched elements modified")
	}
}

func TestCopyCrossDistributionRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		pd := r.Int63n(4) + 1
		ps := r.Int63n(4) + 1
		kd := r.Int63n(6) + 1
		ks := r.Int63n(6) + 1
		dstL := dist.MustNew(pd, kd)
		srcL := dist.MustNew(ps, ks)
		nd := r.Int63n(300) + 50
		ns := r.Int63n(300) + 50
		dst := hpf.MustNewArray(dstL, nd)
		src := hpf.MustNewArray(srcL, ns)
		for i := int64(0); i < ns; i++ {
			src.Set(i, float64(i+1))
		}

		// Pick random equal-count sections, either direction.
		count := r.Int63n(20) + 1
		mkSec := func(n int64) section.Section {
			for {
				stride := r.Int63n(7) + 1
				if r.Intn(3) == 0 {
					stride = -stride
				}
				span := (count - 1) * int64(abs(stride))
				if span >= n {
					continue
				}
				var lo int64
				if stride > 0 {
					lo = r.Int63n(n - span)
				} else {
					lo = span + r.Int63n(n-span)
				}
				return section.Section{Lo: lo, Hi: lo + (count-1)*stride, Stride: stride}
			}
		}
		dstSec := mkSec(nd)
		srcSec := mkSec(ns)

		procs := int(max(pd, ps))
		m := machine.MustNew(procs)
		before := dst.Gather()
		if err := Copy(m, dst, dstSec, src, srcSec); err != nil {
			t.Fatal(err)
		}
		// Reference semantics: dst(dstSec(t)) = src(srcSec(t)).
		want := before
		for tt := int64(0); tt < count; tt++ {
			want[dstSec.Element(tt)] = src.Get(srcSec.Element(tt))
		}
		got := dst.Gather()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (dst %v src %v): element %d = %v, want %v",
					trial, dstSec, srcSec, i, got[i], want[i])
			}
		}
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestCopyEmptySections(t *testing.T) {
	layout := dist.MustNew(2, 3)
	m := machine.MustNew(2)
	src := hpf.MustNewArray(layout, 30)
	dst := hpf.MustNewArray(layout, 30)
	t.Run("empty-section", func(t *testing.T) {
		if err := Copy(m, dst, section.MustNew(5, 4, 1), src, section.MustNew(5, 4, 1)); err != nil {
			t.Fatalf("empty copy should succeed: %v", err)
		}
	})
	// The whole-array copy of an empty array onto another layout.
	t.Run("empty-array", func(t *testing.T) {
		none := section.MustNew(0, -1, 1)
		if err := Copy(m, hpf.MustNewArray(dist.MustNew(2, 4), 0), none, hpf.MustNewArray(layout, 0), none); err != nil {
			t.Fatalf("empty whole-array copy should succeed: %v", err)
		}
	})
}

func TestExecuteMachineTooSmall(t *testing.T) {
	layout := dist.MustNew(4, 2)
	m := machine.MustNew(2) // fewer procs than the layout
	src := hpf.MustNewArray(layout, 40)
	dst := hpf.MustNewArray(layout, 40)
	err := Copy(m, dst, section.MustNew(0, 9, 1), src, section.MustNew(0, 9, 1))
	if err == nil {
		t.Error("machine smaller than layouts should fail")
	}
}

// TestExecuteRejectsMismatchedArrays: a plan's compiled addresses are
// local offsets under the layouts and lengths it was built for, so
// Execute and ExecuteWith must refuse arrays that differ in either,
// before any rank touches memory.
func TestExecuteRejectsMismatchedArrays(t *testing.T) {
	const n = 48
	layout := dist.MustNew(4, 2)
	sec := section.MustNew(0, n-1, 1)
	plan, err := NewPlan(layout, n, sec, layout, n, sec)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.MustNew(4)
	other := dist.MustNew(4, 3)
	cases := []struct {
		name     string
		dst, src *hpf.Array
	}{
		{"dst layout", hpf.MustNewArray(other, n), hpf.MustNewArray(layout, n)},
		{"src layout", hpf.MustNewArray(layout, n), hpf.MustNewArray(other, n)},
		{"dst length", hpf.MustNewArray(layout, n-8), hpf.MustNewArray(layout, n)},
		{"src length", hpf.MustNewArray(layout, n), hpf.MustNewArray(layout, n-8)},
	}
	for _, c := range cases {
		c.src.FillAll(1)
		if err := plan.Execute(m, c.dst, c.src); err == nil {
			t.Errorf("%s: Execute accepted mismatched arrays", c.name)
		}
		if err := plan.ExecuteWith(m, c.dst, c.src, Add); err == nil {
			t.Errorf("%s: ExecuteWith accepted mismatched arrays", c.name)
		}
		for i, v := range c.dst.Gather() {
			if v != 0 {
				t.Fatalf("%s: dst(%d) = %v written by a refused execution", c.name, i, v)
			}
		}
	}
	dst, src := hpf.MustNewArray(layout, n), hpf.MustNewArray(layout, n)
	if err := plan.Execute(m, dst, src); err != nil {
		t.Errorf("matching arrays: %v", err)
	}
}

// TestConcurrentCopiesShareMachine runs copies from four goroutines on
// one machine. Their messages would share mailboxes and the comm.copy
// tag, so Run must serialize them; interleaved runs read each other's
// values.
func TestConcurrentCopiesShareMachine(t *testing.T) {
	const n, workers, copies = 4096, 4, 200
	m := machine.MustNew(4)
	sec := section.Section{Lo: 0, Hi: n - 1, Stride: 1}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := hpf.MustNewArray(dist.MustNew(4, 3), n)
			dst := hpf.MustNewArray(dist.MustNew(4, 5), n)
			for c := 0; c < copies; c++ {
				base := float64((w*copies + c) * n)
				for i := int64(0); i < n; i++ {
					src.Set(i, base+float64(i))
				}
				if err := Copy(m, dst, sec, src, sec); err != nil {
					errs[w] = err
					return
				}
				for i := int64(0); i < n; i++ {
					if got := dst.Get(i); got != base+float64(i) {
						errs[w] = fmt.Errorf("copy %d: dst(%d) = %v, want %v", c, i, got, base+float64(i))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", w, err)
		}
	}
}

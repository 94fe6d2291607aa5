package comm

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/plancache"
	"repro/internal/section"
)

// commCase generates random valid copy patterns for testing/quick: two
// layouts and two sections with matching element counts inside matching
// array bounds.
type commCase struct {
	dstP, dstK, srcP, srcK int64
	n                      int64 // element count of both sections
	dstLo, dstStride       int64
	srcLo, srcStride       int64
}

func (commCase) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(commCase{
		dstP: r.Int63n(5) + 1, dstK: r.Int63n(6) + 1,
		srcP: r.Int63n(5) + 1, srcK: r.Int63n(6) + 1,
		n:     r.Int63n(40) + 1,
		dstLo: r.Int63n(10), dstStride: r.Int63n(5) + 1,
		srcLo: r.Int63n(10), srcStride: r.Int63n(5) + 1,
	})
}

func (c commCase) sections() (dstSec, srcSec section.Section, dstN, srcN int64) {
	dstSec = section.Section{Lo: c.dstLo, Hi: c.dstLo + (c.n-1)*c.dstStride, Stride: c.dstStride}
	srcSec = section.Section{Lo: c.srcLo, Hi: c.srcLo + (c.n-1)*c.srcStride, Stride: c.srcStride}
	return dstSec, srcSec, dstSec.Last() + 1, srcSec.Last() + 1
}

// plansEquivalent compares the planner-computed fields (the compiled
// exec pointer is deliberately excluded: it is a lazily-built view).
func plansEquivalent(a, b *Plan) bool {
	return a.NDst == b.NDst && a.NSrc == b.NSrc &&
		a.DstSec == b.DstSec && a.SrcSec == b.SrcSec &&
		a.dstLayout == b.dstLayout && a.srcLayout == b.srcLayout &&
		a.dstN == b.dstN && a.srcN == b.srcN &&
		reflect.DeepEqual(a.Transfers, b.Transfers)
}

// TestCachedPlanMatchesNewPlan is the cache-correctness property: for
// randomized patterns the memoized plan equals a freshly computed one.
func TestCachedPlanMatchesNewPlan(t *testing.T) {
	ResetPlanCache()
	prop := func(c commCase) bool {
		dstSec, srcSec, dstN, srcN := c.sections()
		dstL := dist.MustNew(c.dstP, c.dstK)
		srcL := dist.MustNew(c.srcP, c.srcK)
		want, err := NewPlan(dstL, dstN, dstSec, srcL, srcN, srcSec)
		if err != nil {
			t.Logf("NewPlan: %v", err)
			return false
		}
		// Twice: miss path, then hit path.
		for i := 0; i < 2; i++ {
			got, err := CachedPlan(dstL, dstN, dstSec, srcL, srcN, srcSec)
			if err != nil {
				t.Logf("CachedPlan: %v", err)
				return false
			}
			if !plansEquivalent(got, want) {
				t.Logf("cached plan differs for %+v", c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCachedCopySteadyStateZeroPlanning verifies the acceptance
// criterion end-to-end: after the first sweep of a repeated pattern,
// further Copy calls construct no plans and no AM tables.
func TestCachedCopySteadyStateZeroPlanning(t *testing.T) {
	ResetPlanCache()
	plancache.ResetTables()
	m := machine.MustNew(4)
	dst := hpf.MustNewArray(dist.MustNew(4, 3), 120)
	src := hpf.MustNewArray(dist.MustNew(4, 5), 120)
	for i := int64(0); i < 120; i++ {
		src.Set(i, float64(i))
	}
	sec := section.MustNew(1, 118, 3)
	if err := Copy(m, dst, sec, src, sec); err != nil {
		t.Fatal(err)
	}
	warm := PlanCacheStats()
	for i := 0; i < 10; i++ {
		if err := Copy(m, dst, sec, src, sec); err != nil {
			t.Fatal(err)
		}
	}
	steady := PlanCacheStats()
	if misses := steady.Misses - warm.Misses; misses != 0 {
		t.Fatalf("steady state planned %d times, want 0", misses)
	}
	if steady.Hits-warm.Hits != 10 {
		t.Fatalf("steady state hits = %d, want 10", steady.Hits-warm.Hits)
	}
	// And the copies are still correct.
	for j := int64(0); j < sec.Count(); j++ {
		g := sec.Element(j)
		if dst.Get(g) != float64(g) {
			t.Fatalf("dst(%d) = %g, want %g", g, dst.Get(g), float64(g))
		}
	}
}

// TestPlanCacheConcurrentForcedEvictions swaps in a tiny cache so
// concurrent CachedPlan callers constantly evict each other (run with
// -race); every returned plan must still execute correctly.
func TestPlanCacheConcurrentForcedEvictions(t *testing.T) {
	old := planCache
	planCache = plancache.New[planKey, *Plan](2, hashPlanKey)
	defer func() { planCache = old }()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			m := machine.MustNew(4)
			for i := 0; i < 40; i++ {
				stride := r.Int63n(4) + 1
				n := r.Int63n(20) + 1
				sec := section.Section{Lo: 0, Hi: (n - 1) * stride, Stride: stride}
				size := sec.Last() + 1
				dst := hpf.MustNewArray(dist.MustNew(4, r.Int63n(4)+1), size)
				src := hpf.MustNewArray(dist.MustNew(4, r.Int63n(4)+1), size)
				for g := int64(0); g < size; g++ {
					src.Set(g, float64(g))
				}
				if err := Copy(m, dst, sec, src, sec); err != nil {
					t.Error(err)
					return
				}
				for j := int64(0); j < sec.Count(); j++ {
					g := sec.Element(j)
					if dst.Get(g) != float64(g) {
						t.Errorf("dst(%d) = %g", g, dst.Get(g))
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if st := planCache.Stats(); st.Evictions == 0 {
		t.Error("expected forced evictions in tiny plan cache")
	}
}

// TestCachedPlan2DMatches verifies the 2-D cache against fresh planning
// over a seeded sweep of grids, rects and both permutations.
func TestCachedPlan2DMatches(t *testing.T) {
	ResetPlanCache2D()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		dg := dist.MustNewGrid(dist.MustNew(r.Int63n(3)+1, r.Int63n(3)+1),
			dist.MustNew(r.Int63n(3)+1, r.Int63n(3)+1))
		sg := dist.MustNewGrid(dist.MustNew(r.Int63n(3)+1, r.Int63n(3)+1),
			dist.MustNew(r.Int63n(3)+1, r.Int63n(3)+1))
		n0, n1 := r.Int63n(6)+1, r.Int63n(6)+1
		rect := section.Rect{
			{Lo: 0, Hi: n0 - 1, Stride: 1},
			{Lo: 0, Hi: n1 - 1, Stride: 1},
		}
		perm := [2]int{0, 1}
		srcRect := rect
		if r.Intn(2) == 1 {
			perm = [2]int{1, 0}
			srcRect = section.Rect{rect[1], rect[0]}
		}
		ext := []int64{n0, n1}
		srcExt := []int64{srcRect[0].Last() + 1, srcRect[1].Last() + 1}
		want, err := NewPlan2D(dg, ext, rect, sg, srcExt, srcRect, perm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CachedPlan2D(dg, ext, rect, sg, srcExt, srcRect, perm)
		if err != nil {
			t.Fatal(err)
		}
		for a := range got.axis {
			if !plansEquivalent(got.axis[a], want.axis[a]) {
				t.Fatalf("trial %d: cached 2-D plan's axis %d differs", trial, a)
			}
		}
		if !reflect.DeepEqual(got.exec, want.exec) {
			t.Fatalf("trial %d: cached 2-D plan's compiled schedule differs", trial)
		}
		// Hit path returns the identical plan.
		again, err := CachedPlan2D(dg, ext, rect, sg, srcExt, srcRect, perm)
		if err != nil {
			t.Fatal(err)
		}
		if again != got {
			t.Fatalf("trial %d: second lookup missed the cache", trial)
		}
	}
}

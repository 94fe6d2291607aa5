package hpf

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/plancache"
	"repro/internal/section"
)

// checkPlansAgainstOracle builds the cached plans for sec and checks
// every processor's plan against the paper's definition: the kernel
// walks exactly core.Problem.Addresses, and the start, last and count
// fields agree with it.
func checkPlansAgainstOracle(t *testing.T, a *Array, sec section.Section) {
	t.Helper()
	sp, err := a.cachedSectionPlans(sec)
	if err != nil {
		t.Fatalf("%v: cachedSectionPlans: %v", sec, err)
	}
	asc, _ := sec.Ascending()
	for m := range sp.plans {
		pl := &sp.plans[m]
		pr := core.Problem{P: a.layout.P(), K: a.layout.K(), L: asc.Lo, S: asc.Stride, M: int64(m)}
		want, err := pr.Addresses(asc.Last())
		if err != nil {
			t.Fatalf("%v proc %d: Addresses: %v", sec, m, err)
		}
		var got []int64
		if n := pl.Kernel().Walk(func(addr int64) { got = append(got, addr) }); n != pl.Count() {
			t.Fatalf("%v proc %d: walk visited %d, plan count %d", sec, m, n, pl.Count())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v proc %d (%v kernel): walk %v, oracle %v", sec, m, pl.Kernel().Kind(), got, want)
		}
		if len(want) == 0 {
			if pl.LocalStart() != -1 || pl.GlobalStart() != -1 || pl.Kernel().Kind() != codegen.KindNone {
				t.Fatalf("%v proc %d: empty plan %+v", sec, m, *pl)
			}
			continue
		}
		g := pl.GlobalStart()
		if pl.LocalStart() != want[0] || pl.last != want[len(want)-1] ||
			a.layout.Owner(g) != int64(m) || a.layout.Local(g) != want[0] || !asc.Contains(g) {
			t.Fatalf("%v proc %d: plan bounds %+v disagree with oracle %v", sec, m, *pl, want)
		}
	}
}

// TestPlansWalkMatchOracle checks every processor's cached plan against
// the oracle over a seeded sweep of layouts and sections.
func TestPlansWalkMatchOracle(t *testing.T) {
	ResetSectionPlanCache()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := r.Int63n(6) + 1
		k := r.Int63n(7) + 1
		n := r.Int63n(200) + 1
		a := MustNewArray(dist.MustNew(p, k), n)
		lo := r.Int63n(n)
		stride := r.Int63n(5) + 1
		count := r.Int63n((n-lo+stride-1)/stride) + 1
		sec := section.Section{Lo: lo, Hi: lo + (count-1)*stride, Stride: stride}
		if sec.Last() >= n {
			continue
		}
		checkPlansAgainstOracle(t, a, sec)
	}
	for _, tc := range kernelFamilies() {
		checkPlansAgainstOracle(t, MustNewArray(dist.MustNew(tc.p, tc.k), tc.n), tc.sec)
	}
}

// TestBuildPlansAllocsIndependentOfP guards the shared-buffer build: at
// a fixed k, building 64 ranks' plans allocates no more often than
// building 8, because the gap tables are windows into one buffer and the
// per-rank starts come from one Spans pass. The stride is odd and larger
// than k, so every rank gets a generic kernel (no per-rank allocation).
func TestBuildPlansAllocsIndependentOfP(t *testing.T) {
	const k, n, s = 4096, 1 << 22, 4097
	allocs := func(p int64) float64 {
		layout := dist.MustNew(p, k)
		asc := section.MustNew(3, n-1, s)
		ts, err := core.NewTableSet(p, k, asc.Lo, asc.Stride)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { BuildPlans(ts, layout, asc) })
	}
	if a8, a64 := allocs(8), allocs(64); a8 != a64 {
		t.Fatalf("BuildPlans allocates %.0f times for p = 8 and %.0f for p = 64, want equal", a8, a64)
	}
}

// TestSectionOpsSteadyStateZeroMisses verifies that iteration 2..N of a
// repeated section pattern consults only the cache: zero section-plan
// misses and zero AM-table constructions after warm-up.
func TestSectionOpsSteadyStateZeroMisses(t *testing.T) {
	ResetSectionPlanCache()
	plancache.ResetTables()
	a := MustNewArray(dist.MustNew(4, 3), 120)
	sec := section.MustNew(1, 118, 3)

	if err := a.FillSection(sec, 1); err != nil {
		t.Fatal(err)
	}
	warmSec := SectionPlanCacheStats()
	warmTab := plancache.TableStats()

	for i := 0; i < 10; i++ {
		if err := a.FillSection(sec, float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := a.MapSection(sec, func(v float64) float64 { return v + 1 }); err != nil {
			t.Fatal(err)
		}
		if _, err := a.SumSection(sec); err != nil {
			t.Fatal(err)
		}
	}
	steadySec := SectionPlanCacheStats()
	steadyTab := plancache.TableStats()
	if d := steadySec.Misses - warmSec.Misses; d != 0 {
		t.Fatalf("steady state rebuilt section plans %d times, want 0", d)
	}
	if d := steadyTab.Misses - warmTab.Misses; d != 0 {
		t.Fatalf("steady state rebuilt AM tables %d times, want 0", d)
	}
	if steadySec.Hits-warmSec.Hits != 30 {
		t.Fatalf("steady state section-plan hits = %d, want 30", steadySec.Hits-warmSec.Hits)
	}

	// Semantics spot check: fill 9, +1 ten times would overwrite; final
	// pass left sec elements at 9+1 = 10.
	sum, err := a.SumSection(sec)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(sec.Count()) * 10; math.Abs(sum-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", sum, want)
	}
}

// TestPlansForBlockLongerThanArray: with k ≥ n the whole array is
// rank 0's first block, so fill, map and sum on cyclic(2⁴⁰) must give
// the values they give on a small block and allocate O(n), not O(k).
func TestPlansForBlockLongerThanArray(t *testing.T) {
	ResetSectionPlanCache()
	plancache.ResetTables()
	const p, n = 7, 100
	ops := func(a *Array) []float64 {
		t.Helper()
		if err := a.FillSection(section.MustNew(0, n-1, 1), 1.5); err != nil {
			t.Fatal(err)
		}
		if err := a.MapSection(section.MustNew(97, 3, -5), func(v float64) float64 { return 2*v + 1 }); err != nil {
			t.Fatal(err)
		}
		out := a.Gather()
		for _, sec := range []section.Section{section.MustNew(0, n-1, 1), section.MustNew(1, 98, 3)} {
			sum, err := a.SumSection(sec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sum)
		}
		return out
	}
	huge := MustNewArray(dist.MustNew(p, 1<<40), n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := ops(huge)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("fill, map and sum on cyclic(2^40) allocated %d bytes, want < 1 MB", d)
	}
	if want := ops(MustNewArray(dist.MustNew(p, 8), n)); !slices.Equal(got, want) {
		t.Errorf("cyclic(2^40) gives %v, cyclic(8) gives %v", got, want)
	}
}

// TestSectionPlanCacheConcurrent hammers the cache from several
// goroutines over distinct arrays with overlapping patterns (run with
// -race), using a tiny cache to force evictions.
func TestSectionPlanCacheConcurrent(t *testing.T) {
	old := sectionPlanCache
	sectionPlanCache = plancache.New[sectionKey, *sectionPlans](2, hashSectionKey)
	defer func() { sectionPlanCache = old }()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				p := r.Int63n(4) + 1
				k := r.Int63n(4) + 1
				n := int64(60)
				a := MustNewArray(dist.MustNew(p, k), n)
				stride := r.Int63n(3) + 1
				cnt := r.Int63n(n/stride) + 1
				sec := section.Section{Lo: 0, Hi: (cnt - 1) * stride, Stride: stride}
				if err := a.FillSection(sec, 2); err != nil {
					t.Error(err)
					return
				}
				sum, err := a.SumSection(sec)
				if err != nil {
					t.Error(err)
					return
				}
				if want := 2 * float64(sec.Count()); math.Abs(sum-want) > 1e-9 {
					t.Errorf("sum = %g, want %g", sum, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if st := sectionPlanCache.Stats(); st.Evictions == 0 {
		t.Error("expected forced evictions in tiny section-plan cache")
	}
}

// Cache benchmarks: the runtime plan cache's effect on steady-state
// iteration cost. Each family times one "iteration" of a recurring
// pattern twice — with every runtime cache cleared before each
// iteration (the cold path: plan + AM-table construction every time)
// and with warm caches (iteration 2..N of a solver). The cached column
// also records the caches' steady-state miss count, which the
// acceptance criterion requires to be zero.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/hpf"
	"repro/internal/machine"
	"repro/internal/plancache"
	"repro/internal/section"
)

// CacheBenchResult is one family's cold-vs-warm measurement.
type CacheBenchResult struct {
	Name                string
	UncachedNsPerOp     float64
	CachedNsPerOp       float64
	UncachedAllocsPerOp float64
	CachedAllocsPerOp   float64
	HitRate             float64 // combined cache hit rate over the warm run
	SteadyMisses        int64   // cache misses during the warm run (want 0)
}

// Speedup returns the cold/warm time ratio.
func (r CacheBenchResult) Speedup() float64 {
	if r.CachedNsPerOp == 0 {
		return 0
	}
	return r.UncachedNsPerOp / r.CachedNsPerOp
}

// resetRuntimeCaches clears every process-wide runtime cache: section
// plans, communication plans (1-D and 2-D) and the AM-table sets.
func resetRuntimeCaches() {
	hpf.ResetSectionPlanCache()
	comm.ResetPlanCache()
	comm.ResetPlanCache2D()
	plancache.ResetTables()
}

// cacheTotals sums hits and misses across all runtime caches.
func cacheTotals() (hits, misses int64) {
	for _, st := range []plancache.Stats{
		hpf.SectionPlanCacheStats(),
		comm.PlanCacheStats(),
		comm.PlanCache2DStats(),
		plancache.TableStats(),
	} {
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// measureOp times iters runs of op and reports mean ns/op and heap
// allocations per op (runtime.MemStats.Mallocs delta). With uncached
// set, every run is preceded by a full cache reset so each iteration
// pays the complete planning cost (the resets themselves are orders of
// magnitude cheaper than the planning they force).
func measureOp(iters int, uncached bool, op func() error) (nsPerOp, allocsPerOp float64, err error) {
	if err := op(); err != nil { // warm-up / sanity run
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if uncached {
			resetRuntimeCaches()
		}
		if err := op(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	nsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(iters)
	return nsPerOp, allocsPerOp, nil
}

// CacheBenchmarks measures the three steady-state families on procs
// simulated processors, iters iterations per measurement:
//
//   - section-assign: FillSection + MapSection of a strided section
//     (pure addressing, no communication)
//   - jacobi-sweep: one Jacobi iteration — Combine of shifted
//     sections, pointwise scale, Copy back
//   - redistribute: a cyclic(4) ⇄ cyclic(7) bounce, two whole-array
//     comm.Copy calls
func CacheBenchmarks(procs int64, iters int) ([]CacheBenchResult, error) {
	if procs < 1 {
		return nil, fmt.Errorf("bench: need at least one processor, got %d", procs)
	}
	if iters < 1 {
		iters = 50
	}
	m := machine.MustNew(int(procs))
	n := procs * 32

	secArr := hpf.MustNewArray(dist.MustNew(procs, 8), n)
	sec := section.Section{Lo: 1, Hi: n - 2, Stride: 3}
	sectionOp := func() error {
		if err := secArr.FillSection(sec, 1); err != nil {
			return err
		}
		return secArr.MapSection(sec, func(v float64) float64 { return v * 0.5 })
	}

	layout := dist.MustNew(procs, 4)
	x := hpf.MustNewArray(layout, n)
	tmp := hpf.MustNewArray(layout, n)
	interior := section.Section{Lo: 1, Hi: n - 2, Stride: 1}
	left := section.Section{Lo: 0, Hi: n - 3, Stride: 1}
	right := section.Section{Lo: 2, Hi: n - 1, Stride: 1}
	jacobiOp := func() error {
		if err := comm.Combine(m, tmp, interior, x, left, x, right, comm.Add); err != nil {
			return err
		}
		if err := tmp.MapSection(interior, func(v float64) float64 { return 0.5 * v }); err != nil {
			return err
		}
		return comm.Copy(m, x, interior, tmp, interior)
	}

	ra := hpf.MustNewArray(dist.MustNew(procs, 4), n)
	rb := hpf.MustNewArray(dist.MustNew(procs, 7), n)
	whole := section.Section{Lo: 0, Hi: n - 1, Stride: 1}
	redistOp := func() error {
		if err := comm.Copy(m, rb, whole, ra, whole); err != nil {
			return err
		}
		return comm.Copy(m, ra, whole, rb, whole)
	}

	families := []struct {
		name string
		op   func() error
	}{
		{"section-assign", sectionOp},
		{"jacobi-sweep", jacobiOp},
		{"redistribute", redistOp},
	}

	var out []CacheBenchResult
	for _, f := range families {
		uNs, uAllocs, err := measureOp(iters, true, f.op)
		if err != nil {
			return nil, fmt.Errorf("bench: %s uncached: %w", f.name, err)
		}
		resetRuntimeCaches()
		if err := f.op(); err != nil { // warm every cache once
			return nil, fmt.Errorf("bench: %s warm-up: %w", f.name, err)
		}
		h0, m0 := cacheTotals()
		cNs, cAllocs, err := measureOp(iters, false, f.op)
		if err != nil {
			return nil, fmt.Errorf("bench: %s cached: %w", f.name, err)
		}
		h1, m1 := cacheTotals()
		hits, misses := h1-h0, m1-m0
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		out = append(out, CacheBenchResult{
			Name:                f.name,
			UncachedNsPerOp:     uNs,
			CachedNsPerOp:       cNs,
			UncachedAllocsPerOp: uAllocs,
			CachedAllocsPerOp:   cAllocs,
			HitRate:             hitRate,
			SteadyMisses:        misses,
		})
	}
	return out, nil
}

// FormatCacheBench renders the cold-vs-warm comparison.
func FormatCacheBench(results []CacheBenchResult) string {
	var b strings.Builder
	b.WriteString("Plan cache: steady-state iteration cost, cold vs warm caches\n")
	b.WriteString(fmt.Sprintf("%-16s%14s%14s%9s%15s%15s%10s%8s\n",
		"family", "cold ns/op", "warm ns/op", "speedup",
		"cold allocs/op", "warm allocs/op", "hit rate", "misses"))
	for _, r := range results {
		b.WriteString(fmt.Sprintf("%-16s%14.0f%14.0f%8.1fx%15.1f%15.1f%9.1f%%%8d\n",
			r.Name, r.UncachedNsPerOp, r.CachedNsPerOp, r.Speedup(),
			r.UncachedAllocsPerOp, r.CachedAllocsPerOp, 100*r.HitRate, r.SteadyMisses))
	}
	return b.String()
}

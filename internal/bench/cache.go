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
	Uncached, Cached    Spread // time per op
	UncachedAllocsPerOp float64
	CachedAllocsPerOp   float64
	HitRate             float64 // combined cache hit rate over the counted warm ops
	SteadyMisses        int64   // cache misses during the counted warm ops (want 0)
}

// Speedup returns the cold/warm ratio of the median times.
func (r CacheBenchResult) Speedup() float64 {
	if r.Cached.Median == 0 {
		return 0
	}
	return float64(r.Uncached.Median) / float64(r.Cached.Median)
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

// countIters is how many operations countOp counts over.
const countIters = 20

// countOp runs op once to warm every cache, then countIters times, and
// reports the heap allocations per op (runtime.MemStats.Mallocs delta)
// and the caches' hit rate and misses over the counted runs.
func countOp(op func() error) (allocsPerOp, hitRate float64, misses int64, err error) {
	if err := op(); err != nil {
		return 0, 0, 0, err
	}
	var before, after runtime.MemStats
	h0, m0 := cacheTotals()
	runtime.ReadMemStats(&before)
	for i := 0; i < countIters; i++ {
		if err := op(); err != nil {
			return 0, 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	h1, m1 := cacheTotals()
	hits, misses := h1-h0, m1-m0
	hitRate = float64(hits) / float64(max(hits+misses, 1))
	return float64(after.Mallocs-before.Mallocs) / countIters, hitRate, misses, nil
}

// CacheBenchmarks measures the three steady-state families on procs
// simulated processors, timing each family's uncached operation against
// its cached one over reps reps (one machine run is one operation, so
// the harness sees one processor):
//
//   - section-assign: FillSection + MapSection of a strided section
//     (pure addressing, no communication)
//   - jacobi-sweep: one Jacobi iteration — Combine of shifted
//     sections, pointwise scale, Copy back
//   - redistribute: a cyclic(4) ⇄ cyclic(7) bounce, two whole-array
//     comm.Copy calls
func CacheBenchmarks(procs int64, reps int) ([]CacheBenchResult, error) {
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
		// Every uncached operation pays the complete planning cost; the
		// reset itself is orders of magnitude cheaper than the planning
		// it forces.
		uncached := func() error {
			resetRuntimeCaches()
			return f.op()
		}
		sp, err := timeCells(1, reps, []op{
			func(int) error { return uncached() },
			func(int) error { return f.op() },
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", f.name, err)
		}
		uAllocs, _, _, err := countOp(uncached)
		if err != nil {
			return nil, fmt.Errorf("bench: %s uncached: %w", f.name, err)
		}
		cAllocs, hitRate, misses, err := countOp(f.op)
		if err != nil {
			return nil, fmt.Errorf("bench: %s cached: %w", f.name, err)
		}
		out = append(out, CacheBenchResult{
			Name:                f.name,
			Uncached:            sp[0],
			Cached:              sp[1],
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
	b.WriteString("Plan cache: steady-state iteration cost, cold vs warm caches (median ns per op)\n")
	b.WriteString(fmt.Sprintf("%-16s%14s%14s%9s%15s%15s%10s%8s\n",
		"family", "cold ns/op", "warm ns/op", "speedup",
		"cold allocs/op", "warm allocs/op", "hit rate", "misses"))
	for _, r := range results {
		b.WriteString(fmt.Sprintf("%-16s%14.0f%14.0f%8.1fx%15.1f%15.1f%9.1f%%%8d\n",
			r.Name, float64(r.Uncached.Median), float64(r.Cached.Median), r.Speedup(),
			r.UncachedAllocsPerOp, r.CachedAllocsPerOp, 100*r.HitRate, r.SteadyMisses))
	}
	return b.String()
}

package comm

import (
	"repro/internal/dist"
	"repro/internal/plancache"
	"repro/internal/section"
)

// Communication planning is pure arithmetic over (layouts, array sizes,
// sections): the same inputs always produce the same schedule. Iterative
// solvers issue the same handful of array assignments every sweep, so
// the planner's output is memoized process-wide, exactly as the AM-table
// sets are (Section 6.1's amortization applied to the Section 7
// communication problem). Executing a cached plan also reuses its
// compiled pack/unpack strided runs, so iteration 2..N does no
// planning, no owner walk and no address arithmetic beyond one add per
// strided load or store.

// planKey identifies one 1-D communication pattern. Sections are keyed
// by their (Lo, Hi, Stride) triplet verbatim; two spellings of the same
// element set (e.g. 0:9:2 and 0:8:2) cache separately, which costs a
// duplicate entry but never correctness.
type planKey struct {
	dstLayout dist.Layout
	dstN      int64
	dstSec    section.Section
	srcLayout dist.Layout
	srcN      int64
	srcSec    section.Section
}

func hashPlanKey(k planKey) uint64 {
	h := plancache.Mix(plancache.Mix(plancache.Mix(plancache.Seed,
		k.dstLayout.P()), k.dstLayout.K()), k.dstN)
	h = plancache.Mix(plancache.Mix(plancache.Mix(h,
		k.dstSec.Lo), k.dstSec.Hi), k.dstSec.Stride)
	h = plancache.Mix(plancache.Mix(plancache.Mix(h,
		k.srcLayout.P()), k.srcLayout.K()), k.srcN)
	return plancache.Mix(plancache.Mix(plancache.Mix(h,
		k.srcSec.Lo), k.srcSec.Hi), k.srcSec.Stride)
}

var planCache = plancache.New[planKey, *Plan](256, hashPlanKey)

func init() {
	if err := planCache.Register("comm.plan1d"); err != nil {
		panic(err)
	}
}

// CachedPlan is NewPlan through the process-wide plan cache: the first
// occurrence of a (layouts, sizes, sections) pattern plans it, repeats
// reuse the memoized schedule. Plans are immutable after construction
// and safe for concurrent execution.
func CachedPlan(dstLayout dist.Layout, dstN int64, dstSec section.Section,
	srcLayout dist.Layout, srcN int64, srcSec section.Section) (*Plan, error) {
	key := planKey{
		dstLayout: dstLayout, dstN: dstN, dstSec: dstSec,
		srcLayout: srcLayout, srcN: srcN, srcSec: srcSec,
	}
	return planCache.GetOrCompute(key, func() (*Plan, error) {
		return NewPlan(dstLayout, dstN, dstSec, srcLayout, srcN, srcSec)
	})
}

// PlanCacheStats snapshots the 1-D plan cache counters; Misses equal
// the number of plans actually constructed.
func PlanCacheStats() plancache.Stats { return planCache.Stats() }

// ResetPlanCache drops all cached plans and zeroes the counters.
func ResetPlanCache() { planCache.Reset() }

// planKey2D identifies one 2-D communication pattern by the per-axis
// layouts of both grids, the extents, the rects and the axis
// permutation.
type planKey2D struct {
	dstDim0, dstDim1 dist.Layout
	dstN0, dstN1     int64
	dstR0, dstR1     section.Section
	srcDim0, srcDim1 dist.Layout
	srcN0, srcN1     int64
	srcR0, srcR1     section.Section
	perm             [2]int
}

func hashPlanKey2D(k planKey2D) uint64 {
	h := plancache.Mix(plancache.Mix(plancache.Seed, k.dstDim0.P()), k.dstDim0.K())
	h = plancache.Mix(plancache.Mix(h, k.dstDim1.P()), k.dstDim1.K())
	h = plancache.Mix(plancache.Mix(h, k.dstN0), k.dstN1)
	h = plancache.Mix(plancache.Mix(plancache.Mix(h, k.dstR0.Lo), k.dstR0.Hi), k.dstR0.Stride)
	h = plancache.Mix(plancache.Mix(plancache.Mix(h, k.dstR1.Lo), k.dstR1.Hi), k.dstR1.Stride)
	h = plancache.Mix(plancache.Mix(h, k.srcDim0.P()), k.srcDim0.K())
	h = plancache.Mix(plancache.Mix(h, k.srcDim1.P()), k.srcDim1.K())
	h = plancache.Mix(plancache.Mix(h, k.srcN0), k.srcN1)
	h = plancache.Mix(plancache.Mix(plancache.Mix(h, k.srcR0.Lo), k.srcR0.Hi), k.srcR0.Stride)
	h = plancache.Mix(plancache.Mix(plancache.Mix(h, k.srcR1.Lo), k.srcR1.Hi), k.srcR1.Stride)
	return plancache.Mix(h, int64(k.perm[0]))
}

var plan2DCache = plancache.New[planKey2D, *Plan2D](64, hashPlanKey2D)

func init() {
	if err := plan2DCache.Register("comm.plan2d"); err != nil {
		panic(err)
	}
}

// CachedPlan2D is NewPlan2D through the process-wide 2-D plan cache.
// The key covers the grids' per-axis layouts, so two *dist.Grid values
// with identical dimensions share one cached plan.
func CachedPlan2D(dstGrid *dist.Grid, dstExt []int64, dstRect section.Rect,
	srcGrid *dist.Grid, srcExt []int64, srcRect section.Rect,
	perm [2]int) (*Plan2D, error) {
	if dstGrid.Rank() != 2 || srcGrid.Rank() != 2 ||
		dstRect.Rank() != 2 || srcRect.Rank() != 2 ||
		len(dstExt) != 2 || len(srcExt) != 2 {
		// Let the planner produce its usual diagnostic.
		return NewPlan2D(dstGrid, dstExt, dstRect, srcGrid, srcExt, srcRect, perm)
	}
	key := planKey2D{
		dstDim0: dstGrid.Dim(0), dstDim1: dstGrid.Dim(1),
		dstN0: dstExt[0], dstN1: dstExt[1],
		dstR0: dstRect[0], dstR1: dstRect[1],
		srcDim0: srcGrid.Dim(0), srcDim1: srcGrid.Dim(1),
		srcN0: srcExt[0], srcN1: srcExt[1],
		srcR0: srcRect[0], srcR1: srcRect[1],
		perm: perm,
	}
	return plan2DCache.GetOrCompute(key, func() (*Plan2D, error) {
		return NewPlan2D(dstGrid, dstExt, dstRect, srcGrid, srcExt, srcRect, perm)
	})
}

// PlanCache2DStats snapshots the 2-D plan cache counters.
func PlanCache2DStats() plancache.Stats { return plan2DCache.Stats() }

// ResetPlanCache2D drops all cached 2-D plans and zeroes the counters.
func ResetPlanCache2D() { plan2DCache.Reset() }

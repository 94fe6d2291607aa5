package hpf

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/plancache"
	"repro/internal/section"
)

// Section operations (fill, map, sum) re-derive the same per-processor
// node-loop plans every time an iterative program revisits a section.
// The plans depend only on (layout, array size, normalized section), so
// they are memoized process-wide: one entry holds every processor's
// plan, built through the shared TableSet cache so the basis vectors
// and transition table for the section's (p, k, l, s) are computed once
// — the runtime realization of Section 6.1's compile-time hoisting.

// sectionKey identifies one array-section node-loop pattern. The
// section is keyed in ascending normal form (fill-type operations are
// order independent).
type sectionKey struct {
	p, k, n        int64
	lo, hi, stride int64
}

func hashSectionKey(k sectionKey) uint64 {
	h := plancache.Mix(plancache.Mix(plancache.Mix(plancache.Seed, k.p), k.k), k.n)
	return plancache.Mix(plancache.Mix(plancache.Mix(h, k.lo), k.hi), k.stride)
}

// sectionPlans holds the node-loop plan of every processor for one
// cached pattern. Immutable after construction; gap tables are shared
// read-only across all users.
type sectionPlans struct {
	plans []Plan // indexed by processor rank
}

var sectionPlanCache = plancache.New[sectionKey, *sectionPlans](512, hashSectionKey)

func init() {
	if err := sectionPlanCache.Register("hpf.section_plans"); err != nil {
		panic(err)
	}
}

// SectionPlanCacheStats snapshots the section-plan cache counters;
// Misses equal the number of full per-array plan constructions.
func SectionPlanCacheStats() plancache.Stats { return sectionPlanCache.Stats() }

// ResetSectionPlanCache drops all cached section plans and zeroes the
// counters (benchmarks use this to measure the cold path).
func ResetSectionPlanCache() { sectionPlanCache.Reset() }

// cachedSectionPlans returns the memoized per-processor plans for the
// array's section, building them on first use. A nil result (with nil
// error) means the section is empty and there is nothing to do.
func (a *Array) cachedSectionPlans(sec section.Section) (*sectionPlans, error) {
	return cachedSectionPlans(a.layout, a.n, sec)
}

// cachedSectionPlans returns the memoized plans of section sec of an
// n-element dimension distributed by layout: one plan per processor of
// the layout, indexed by its coordinate along that dimension.
func cachedSectionPlans(layout dist.Layout, n int64, sec section.Section) (*sectionPlans, error) {
	asc, _ := sec.Ascending()
	if asc.Empty() {
		return nil, nil
	}
	if asc.Lo < 0 || asc.Last() >= n {
		return nil, fmt.Errorf("hpf: section %v outside array [0, %d)", sec, n)
	}
	layout = layout.Within(n)
	key := sectionKey{
		p: layout.P(), k: layout.K(), n: n,
		lo: asc.Lo, hi: asc.Hi, stride: asc.Stride,
	}
	return sectionPlanCache.GetOrCompute(key, func() (*sectionPlans, error) {
		ts, err := plancache.Tables(key.p, key.k, asc.Lo, asc.Stride)
		if err != nil {
			return nil, err
		}
		return &sectionPlans{plans: BuildPlans(ts, layout, asc)}, nil
	})
}

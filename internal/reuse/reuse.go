// Package reuse computes exact LRU reuse distances (stack distances)
// over recorded memory access sequences — the locality analysis layer
// on top of the telemetry access recorder. The reuse distance of an
// access is the number of distinct addresses touched since the previous
// access to the same address (Cold for first touches); the distribution
// of these distances determines the miss rate of every LRU cache size
// at once, which is what lets one trace justify a distribution choice:
// a block layout whose node loops sit in short reuse distances hits in
// cache where a cyclic(1) layout of the same computation does not.
//
// The algorithm is Olken's: a hash from address to its last access
// time plus an order-statistics splay tree over those times, giving
// amortized O(log n) per access.
package reuse

import "math/bits"

// Cold marks a first access: no previous touch, infinite reuse
// distance.
const Cold = int64(-1)

// Distances returns the exact reuse distance of every access in addrs:
// out[i] is the number of distinct addresses in addrs[j..i-1] where j
// is the previous occurrence of addrs[i], or Cold when addrs[i] has not
// been touched before.
func Distances(addrs []int64) []int64 {
	if len(addrs) == 0 {
		return nil
	}
	out := make([]int64, len(addrs))
	last := make(map[int64]int64, len(addrs)/4+16)
	var t tree
	for i, a := range addrs {
		now := int64(i)
		if prev, ok := last[a]; ok {
			out[i] = t.countGreater(prev)
			t.delete(prev)
		} else {
			out[i] = Cold
		}
		t.insert(now)
		last[a] = now
	}
	return out
}

// ---------------------------------------------------------------------
// Histograms and miss estimates.

// NumBuckets bounds the power-of-two distance buckets: bucket i holds
// finite distances d with bits.Len64(d) == i (bucket 0 is exactly
// d = 0, a repeat of the most recent address), so bucket i's upper
// bound is 2^i − 1. 48 buckets cover every trace length the recorder
// can hold.
const NumBuckets = 48

// Histogram is the distribution of one access sequence's reuse
// distances: power-of-two buckets for the finite distances plus the
// cold (first-touch) count.
type Histogram struct {
	Counts [NumBuckets]int64
	Cold   int64
	Total  int64 // finite + cold
	Max    int64 // largest finite distance (0 when none)
	sum    int64 // sum of finite distances, for Mean
}

// bucketIndex maps a finite distance to its bucket.
func bucketIndex(d int64) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpperBound returns the largest distance bucket i holds.
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<i - 1
}

// Add records one distance (Cold included).
func (h *Histogram) Add(d int64) {
	h.Total++
	if d == Cold {
		h.Cold++
		return
	}
	h.Counts[bucketIndex(d)]++
	h.sum += d
	if d > h.Max {
		h.Max = d
	}
}

// Finite returns the number of finite-distance accesses (reuses).
func (h *Histogram) Finite() int64 { return h.Total - h.Cold }

// Mean returns the mean finite reuse distance (0 when there are none).
func (h *Histogram) Mean() float64 {
	if f := h.Finite(); f > 0 {
		return float64(h.sum) / float64(f)
	}
	return 0
}

// CDF returns the fraction of all accesses with finite distance
// ≤ BucketUpperBound(i) — the value an LRU cache of that capacity
// would hit. Cold accesses count in the denominator (they always
// miss).
func (h *Histogram) CDF(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	var cum int64
	for j := 0; j <= i && j < NumBuckets; j++ {
		cum += h.Counts[j]
	}
	return float64(cum) / float64(h.Total)
}

// MissEstimate is the exact miss count of one fully-associative LRU
// cache size replayed over the sequence: cold misses plus every reuse
// whose distance is at least the capacity.
type MissEstimate struct {
	CacheSize int64   `json:"cache_size"`
	Misses    int64   `json:"misses"`
	MissRate  float64 `json:"miss_rate"`
}

// MissEstimates computes the estimates for each cache size from the
// per-access distances.
func MissEstimates(dists []int64, cacheSizes []int64) []MissEstimate {
	if len(cacheSizes) == 0 {
		return nil
	}
	out := make([]MissEstimate, len(cacheSizes))
	for i, c := range cacheSizes {
		out[i].CacheSize = c
	}
	for _, d := range dists {
		for i, c := range cacheSizes {
			if d == Cold || d >= c {
				out[i].Misses++
			}
		}
	}
	if n := len(dists); n > 0 {
		for i := range out {
			out[i].MissRate = float64(out[i].Misses) / float64(n)
		}
	}
	return out
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the fewest samples that must lie beyond a reported
// percentile. With fewer, a percentile is decided by a handful of
// outliers and moves from run to run.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted,
// which must be in ascending order. It fails, rather than return a
// number, when fewer than minTail samples lie beyond the quantile.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d samples beyond it; at least %d are needed",
			q*100, n, beyond, minTail)
	}
	return sorted[idx], nil
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// merged returns the chunks' values in one ascending slice.
func merged(chunks [][]float64) []float64 {
	var out []float64
	for _, c := range chunks {
		out = append(out, c...)
	}
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values. It is for the few
// repeated set-ups of a run, where no tail is reported.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// layerP50 is the guarded median of one layer's samples, or 0 when the
// workload never entered the layer (no samples at all).
func layerP50(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	return percentile(sorted(xs), 0.5)
}

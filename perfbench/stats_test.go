package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.5, 50},
		{1000, 0.99, 990},
		{21, 0.5, 11},
		{2000, 0.99, 1980},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if err != nil {
			t.Fatalf("p%g of %d: %v", tc.q*100, tc.n, err)
		}
		if got != tc.want {
			t.Errorf("p%g of %d = %g, want %g", tc.q*100, tc.n, got, tc.want)
		}
	}
}

// TestPercentileGuard checks the boundary: a percentile needs at least
// minTail samples beyond it.
func TestPercentileGuard(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, // 10 beyond
		{999, 0.99, false}, // 9 beyond
		{992, 0.99, false}, // 9 beyond
		{20, 0.5, true},    // 10 beyond
		{19, 0.5, false},   // 9 beyond
		{0, 0.5, false},    // nothing at all
		{100000, 0.999, true},
	} {
		_, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d: err = %v, want ok = %v", tc.q*100, tc.n, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "beyond") {
			t.Errorf("p%g of %d: error %q does not say why", tc.q*100, tc.n, err)
		}
	}
}

func TestLayerP50(t *testing.T) {
	if v, err := layerP50(nil); err != nil || v != 0 {
		t.Errorf("layerP50(nil) = %g, %v; want 0 for a bypassed layer", v, err)
	}
	if _, err := layerP50(seq(5)); err == nil {
		t.Error("layerP50 of 5 samples succeeded; the guard must refuse it")
	}
	if v, err := layerP50([]float64{3, 1, 2, 5, 4, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}); err != nil || v != 11 {
		t.Errorf("layerP50 of unsorted 1..21 = %g, %v; want 11", v, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
